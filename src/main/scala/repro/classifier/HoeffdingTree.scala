package repro.classifier

import scala.util.Random

/** Configuration for [[HoeffdingTree]]. Defaults are tuned for the short
  * segments used in this reproduction (paper streams are 30k observations;
  * ours are ~5–9k), hence a smaller grace period than MOA's 200.
  */
final case class HoeffdingTreeConfig(
    gracePeriod: Int = 50,
    /** <= 0 means use all features; otherwise each leaf draws a random
      * subset of this size (Adaptive Random Forest subspace).
      */
    featureSubsetSize: Int = -1,
) extends Serializable

/** Incremental Hoeffding Tree (VFDT) with Gaussian numeric attribute
  * observers and adaptive naive-Bayes leaves, in the spirit of the MOA /
  * scikit-multiflow HoeffdingTreeClassifier. It is trained one observation
  * at a time (test-then-train protocol) and is serializable so experiment
  * cells can run as Spark tasks.
  *
  * Extras needed by this reproduction:
  *  - `splitEvents` counts structural changes (FiCSUM resets
  *    classifier-dependent meta-information when the tree grows, §IV);
  *  - `featureContributions` returns Saabas-style path attributions used as
  *    the fast tree "Shapley value" meta-information feature (Table I);
  *  - optional per-leaf feature subspaces + weighted training for ARF.
  */
final class HoeffdingTree(
    val numFeatures: Int,
    val numClasses: Int,
    cfg: HoeffdingTreeConfig = HoeffdingTreeConfig(),
    seed: Long = 17,
) extends Serializable {
  import HoeffdingTree._

  private val rng = new Random(seed)

  private var splits = 0L

  /** Structural-change counter: number of splits performed so far. */
  def splitEvents: Long = splits

  private[classifier] sealed trait Node extends Serializable {
    /** Class counts of observations routed through this node. */
    val classCounts: Array[Double] = new Array[Double](numClasses)
    def totalWeight: Double = { var s = 0.0; var i = 0; while (i < numClasses) { s += classCounts(i); i += 1 }; s }
    def proba: Array[Double] = {
      val tot = totalWeight
      if (tot <= 0) Array.fill(numClasses)(1.0 / numClasses)
      else classCounts.map(_ / tot)
    }
  }

  private[classifier] final class Leaf(val depth: Int) extends Node {
    val observers: Array[Array[GaussianEstimator]] =
      Array.fill(numFeatures, numClasses)(new GaussianEstimator)
    val mins = Array.fill(numFeatures)(Double.PositiveInfinity)
    val maxs = Array.fill(numFeatures)(Double.NegativeInfinity)
    var weightSinceEval = 0.0
    // MC-vs-NB adaptive bookkeeping.
    var mcCorrect = 0.0
    var nbCorrect = 0.0
    val candidateFeatures: Array[Int] =
      if (cfg.featureSubsetSize <= 0 || cfg.featureSubsetSize >= numFeatures) Array.tabulate(numFeatures)(identity)
      else rng.shuffle((0 until numFeatures).toVector).take(cfg.featureSubsetSize).toArray

    // The likelihood terms log(max(pdf, 1e-12)) of the last nbProba call,
    // class-major, a copy of the row they were computed for, and whether
    // they are valid. They stay valid while the observers do: train clears
    // them before it changes any. A class with no count gets no terms, and
    // none are read for it until train clears them: train counts a row
    // before it adds the row to its class's observers, counts never fall,
    // so such a class has no observer with weight. Not serialized.
    @transient private var terms: Array[Double] = null
    @transient private var termsRow: Array[Double] = null
    @transient private var termsValid = false

    /** Forget the cached likelihood terms (the observers are about to change). */
    def clearTerms(): Unit = termsValid = false

    /** Naive-Bayes class probabilities. Callers pass a leaf with positive
      * weight, so some class has a finite log-probability. The likelihood
      * terms of a row evaluated since the observers last changed are
      * reused; each class's sum adds the same terms in the same order.
      */
    def nbProba(x: Array[Double]): Array[Double] = {
      if (termsRow == null) {
        terms = new Array[Double](numClasses * numFeatures)
        termsRow = new Array[Double](numFeatures)
      }
      if (!sameBits(termsRow, x)) {
        System.arraycopy(x, 0, termsRow, 0, numFeatures)
        clearTerms()
      }
      val fresh = !termsValid
      val tot = totalWeight
      val logp = new Array[Double](numClasses)
      var c = 0
      while (c < numClasses) {
        if (classCounts(c) <= 0) logp(c) = Double.NegativeInfinity
        else {
          val base = c * numFeatures
          var lp = math.log(classCounts(c) / tot)
          var f = 0
          while (f < numFeatures) {
            val est = observers(f)(c)
            if (est.weight > 0) {
              if (fresh) terms(base + f) = math.log(math.max(est.pdf(x(f)), 1e-12))
              lp += terms(base + f)
            }
            f += 1
          }
          logp(c) = lp
        }
        c += 1
      }
      termsValid = true
      // Softmax in place: the maximum under logp.max's total ordering, then
      // exp, then a left-to-right sum from element 0, then the division.
      var mx = logp(0)
      c = 1
      while (c < numClasses) { if (java.lang.Double.compare(mx, logp(c)) < 0) mx = logp(c); c += 1 }
      c = 0
      while (c < numClasses) { logp(c) = math.exp(logp(c) - mx); c += 1 }
      val s = sum(logp)
      c = 0
      while (c < numClasses) { logp(c) /= s; c += 1 }
      logp
    }

    def leafProba(x: Array[Double]): Array[Double] =
      if (totalWeight >= NbThreshold && nbCorrect >= mcCorrect) nbProba(x) else proba

    /** Writes each class's mass on either side of `threshold` on feature `f`
      * into `left` and `right`, by the class Gaussians; 0 for an unseen class.
      */
    def divide(f: Int, threshold: Double, left: Array[Double], right: Array[Double]): Unit = {
      var c = 0
      while (c < numClasses) {
        val w = classCounts(c)
        if (w > 0) {
          val pl = observers(f)(c).cdf(threshold)
          left(c) = w * pl
          right(c) = w * (1 - pl)
        } else {
          left(c) = 0.0
          right(c) = 0.0
        }
        c += 1
      }
    }
  }

  private[classifier] final class Split(
      val feature: Int,
      val threshold: Double,
      var left: Node,
      var right: Node,
  ) extends Node {
    def route(x: Array[Double]): Node = if (x(feature) <= threshold) left else right
  }

  private[classifier] var root: Node = new Leaf(0)

  // ---------------------------------------------------------------- predict

  /** Class-probability estimates for `x` (sums to 1 when any class has been
    * seen; uniform before any training).
    */
  def predictProba(x: Array[Double]): Array[Double] = {
    var n = root
    while (n.isInstanceOf[Split]) n = n.asInstanceOf[Split].route(x)
    n.asInstanceOf[Leaf].leafProba(x)
  }

  /** Most probable class for `x`. */
  def predict(x: Array[Double]): Int = argmax(predictProba(x))

  /** Saabas-style attribution: walking root→leaf, the change in the
    * predicted class's probability at each split is credited to the split
    * feature. Fast tree analogue of per-feature Shapley values.
    */
  def featureContributions(x: Array[Double]): Array[Double] = {
    val contrib = new Array[Double](numFeatures)
    explain(x, contrib)
    contrib
  }

  /** [[predict]] and [[featureContributions]] from one leaf evaluation:
    * adds the path attributions of `x` to `contrib` (zero on entry for the
    * attributions alone) and returns the predicted class.
    */
  def explain(x: Array[Double], contrib: Array[Double]): Int = {
    val leafP = predictProba(x)
    val yHat = argmax(leafP)
    var n = root
    var pPrev = n.proba(yHat)
    while (n.isInstanceOf[Split]) {
      val s = n.asInstanceOf[Split]
      val child = s.route(x)
      val pChild = if (child.isInstanceOf[Leaf]) leafP(yHat) else child.proba(yHat)
      contrib(s.feature) += math.abs(pChild - pPrev)
      pPrev = pChild
      n = child
    }
    yHat
  }

  // ------------------------------------------------------------------ train

  /** Incorporate one labelled observation with the given weight, which
    * must be ≥ 0 (the term cache relies on class counts never falling).
    */
  def train(x: Array[Double], y: Int, weight: Double = 1.0): Unit = {
    // The split the leaf hangs from (null at the root), where a split of
    // the leaf is linked in.
    var parent: Split = null
    var n = root
    n.classCounts(y) += weight
    while (n.isInstanceOf[Split]) {
      parent = n.asInstanceOf[Split]
      n = parent.route(x)
      n.classCounts(y) += weight
    }
    val leaf = n.asInstanceOf[Leaf]
    // Adaptive NB bookkeeping, scored when the leaf held weight before this
    // row. Both scores read the class counts that already include it (MOA's
    // LearningNodeNBAdaptive scores before counting); the observers are
    // still those `predict` saw, so nbProba reuses its likelihood terms.
    val tot = leaf.totalWeight - weight
    if (tot > 0) {
      if (argmax(leaf.classCounts) == y) leaf.mcCorrect += weight
      if (argmax(leaf.nbProba(x)) == y) leaf.nbCorrect += weight
    }
    leaf.clearTerms()
    var f = 0
    while (f < numFeatures) {
      leaf.observers(f)(y).add(x(f), weight)
      if (x(f) < leaf.mins(f)) leaf.mins(f) = x(f)
      if (x(f) > leaf.maxs(f)) leaf.maxs(f) = x(f)
      f += 1
    }
    leaf.weightSinceEval += weight
    if (leaf.weightSinceEval >= cfg.gracePeriod && leaf.depth < MaxDepth) {
      leaf.weightSinceEval = 0.0
      attemptSplit(leaf, parent)
    }
  }

  /** The split search of one attempt at `leaf`, whose total weight is
    * `totW`: the leaf's entropy, computed once, and two class-count buffers
    * that every candidate threshold of every feature reuses.
    */
  private[classifier] final class SplitSearch(leaf: Leaf, totW: Double) {
    private val hParent = entropy(leaf.classCounts, totW)
    private val lCounts = new Array[Double](numClasses)
    private val rCounts = new Array[Double](numClasses)

    /** Best (gain, threshold) for feature `f` via the class Gaussians. */
    def best(f: Int): (Double, Double) = {
      val lo = leaf.mins(f); val hi = leaf.maxs(f)
      if (!(hi > lo)) return (0.0, 0.0)
      var bestGain = 0.0
      var bestThr  = 0.0
      var k = 1
      while (k <= NumSplitPoints) {
        val thr = lo + (hi - lo) * k / (NumSplitPoints + 1)
        leaf.divide(f, thr, lCounts, rCounts)
        val wl = sum(lCounts); val wr = sum(rCounts)
        if (wl > 1e-9 && wr > 1e-9) {
          val gain = hParent - (wl / totW) * entropy(lCounts, wl) - (wr / totW) * entropy(rCounts, wr)
          if (gain > bestGain) { bestGain = gain; bestThr = thr }
        }
        k += 1
      }
      (bestGain, bestThr)
    }
  }

  private def attemptSplit(leaf: Leaf, parent: Split): Unit = {
    // Pure leaf — nothing to gain.
    if (leaf.classCounts.count(_ > 0) <= 1) return
    // Two classes hold positive weight, so totW > 0.
    val totW = leaf.totalWeight

    val search = new SplitSearch(leaf, totW)
    var bestGain = -1.0; var bestThr = 0.0; var bestF = -1
    var second = -1.0
    for (f <- leaf.candidateFeatures) {
      val (g, thr) = search.best(f)
      if (g > bestGain) { second = bestGain; bestGain = g; bestThr = thr; bestF = f }
      else if (g > second) second = g
    }
    // The candidates are never empty and a gain (≥ 0) beats −1, so bestF ≥ 0.
    if (bestGain <= 0) return
    val range = math.log(numClasses.toDouble) / Ln2
    val eps = math.sqrt(range * range * math.log(1.0 / SplitConfidence) / (2.0 * totW))
    if (bestGain - math.max(second, 0.0) > eps || eps < TieThreshold) {
      doSplit(leaf, parent, bestF, bestThr)
    }
  }

  private def doSplit(leaf: Leaf, parent: Split, feature: Int, threshold: Double): Unit = {
    val split = new Split(feature, threshold, new Leaf(leaf.depth + 1), new Leaf(leaf.depth + 1))
    Array.copy(leaf.classCounts, 0, split.classCounts, 0, numClasses)
    // Seed children with the parent's class-conditional mass on each side so
    // fresh leaves predict sensibly before retraining.
    leaf.divide(feature, threshold, split.left.classCounts, split.right.classCounts)
    if (parent == null) root = split
    else if (parent.left eq leaf) parent.left = split
    else parent.right = split
    splits += 1
  }
}

object HoeffdingTree {
  /** δ: a split needs a gain margin over the runner-up beyond the Hoeffding bound at 1 − δ. */
  private val SplitConfidence = 0.01
  /** τ: once the Hoeffding bound falls below it, the best split is taken
    * without a margin over the runner-up (VFDT's tie threshold).
    */
  private val TieThreshold = 0.05
  /** Depth from which leaves no longer split. */
  private[classifier] val MaxDepth = 8
  /** Leaf weight from which a leaf may answer with naive Bayes. */
  private[classifier] val NbThreshold = 10.0
  /** Candidate thresholds per feature, evenly spaced inside the observed range. */
  private[classifier] val NumSplitPoints = 10
  /** ln 2, the divisor that turns natural logarithms into bits. */
  private val Ln2 = math.log(2)

  /** `xs.sum` without boxing: left to right, starting from element 0. */
  private def sum(xs: Array[Double]): Double = {
    var s = xs(0)
    var i = 1
    while (i < xs.length) { s += xs(i); i += 1 }
    s
  }

  /** Shannon entropy in bits of the class distribution `counts`, whose
    * positive sum `tot` the caller already holds.
    */
  private def entropy(counts: Array[Double], tot: Double): Double = {
    var h = 0.0
    var i = 0
    while (i < counts.length) {
      val p = counts(i) / tot
      if (p > 1e-12) h -= p * math.log(p) / Ln2
      i += 1
    }
    h
  }

  /** Whether `a` and `b` hold the same bits in `a`'s positions. */
  private def sameBits(a: Array[Double], b: Array[Double]): Boolean = {
    var i = 0
    while (i < a.length) {
      if (java.lang.Double.doubleToRawLongBits(a(i)) != java.lang.Double.doubleToRawLongBits(b(i))) return false
      i += 1
    }
    true
  }

  /** Index of the first maximum of `xs` (strict `>` from index 0: ties go
    * to the lowest index, and a NaN at index 0 is never displaced).
    */
  def argmax(xs: Array[Double]): Int = {
    var best = 0
    var i = 1
    while (i < xs.length) { if (xs(i) > xs(best)) best = i; i += 1 }
    best
  }
}

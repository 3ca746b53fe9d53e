package repro.baselines

import scala.util.Random
import repro.classifier.{HoeffdingTree, HoeffdingTreeConfig}
import repro.detector.Adwin
import repro.eval.StreamSystem

/** Adaptive Random Forest (Gomes et al. 2017; paper Table VI, 10 trees):
  * online bagging with Poisson(6) weights, per-tree feature subspaces of
  * ⌈√d⌉+1 features, a per-tree ADWIN on the tree's error that resets the
  * tree on drift, and accuracy-weighted majority voting. Like DWM it keeps
  * one evolving ensemble representation (constant model id).
  */
final class Arf(numFeatures: Int, numClasses: Int, seed: Long = 42) extends StreamSystem {
  import Arf._

  val name = "ARF"

  // A subset of d or more features is every feature (`Leaf.candidateFeatures`).
  private val cfg = HoeffdingTreeConfig(featureSubsetSize = math.ceil(math.sqrt(numFeatures)).toInt + 1)
  private val rng = new Random(seed)

  private final class Member(memberSeed: Long) extends Serializable {
    val tree = new HoeffdingTree(numFeatures, numClasses, cfg, memberSeed)
    val adwin = new Adwin(AdwinDelta)
    var correct = 1.0
    var seen    = 2.0
    def accWeight: Double = correct / seen
  }

  private val members = Array.tabulate(NumTrees)(t => new Member(seed * 31 + t))

  private var drifts = 0
  def driftCount: Int = drifts

  /** Poisson(λ) draw via inversion (λ=6 ⇒ cheap). */
  private def poisson(): Int = {
    val limit = math.exp(-Lambda)
    var p = rng.nextDouble()
    var k = 0
    while (p > limit && k < 30) { p *= rng.nextDouble(); k += 1 }
    k
  }

  def step(x: Array[Double], y: Int): (Int, Int) = {
    val scores = new Array[Double](numClasses)
    val preds = new Array[Int](NumTrees)
    var t = 0
    while (t < NumTrees) {
      val m = members(t)
      val p = m.tree.predict(x)
      preds(t) = p
      scores(p) += m.accWeight
      t += 1
    }
    val best = HoeffdingTree.argmax(scores)

    t = 0
    while (t < NumTrees) {
      var m = members(t)
      val err = if (preds(t) != y) 1.0 else 0.0
      m.seen += 1; if (err == 0) m.correct += 1
      if (m.adwin.add(err)) {
        drifts += 1
        m = new Member(seed * 131 + drifts)
        members(t) = m
      }
      val k = poisson()
      if (k > 0) m.tree.train(x, y, k.toDouble)
      t += 1
    }
    (best, 0) // single evolving ensemble representation
  }
}

object Arf {
  /** Ensemble size (paper Table VI). */
  private val NumTrees = 10
  /** λ of each tree's Poisson(λ) online-bagging weight (Gomes et al. 2017). */
  private val Lambda = 6.0
  /** Confidence δ of each tree's error ADWIN. */
  private val AdwinDelta = 0.001
}

package repro.core

/** Per-dimension running mean/std/count (Welford) over incorporated
  * fingerprints — the paper's (μ_mi, σ_mi, count_mi) triple representation
  * of a concept fingerprint (§III-A), in raw (unnormalized) units.
  */
final class RunningVec(val dim: Int) extends Serializable {
  private val counts = new Array[Double](dim)
  private val means  = new Array[Double](dim)
  private val m2s    = new Array[Double](dim)

  /** Bumped by every [[add]] and [[decayDims]]; the caches below and the
    * callers' caches of what they read from this vector are keyed to it.
    * All are transient, so serialized state is unchanged and a
    * deserialized vector recomputes them.
    */
  @transient private var ver = 0
  /** σ of every dim at version `sigmasAt` (null: none cached). */
  @transient private var sigmas: Array[Double] = _
  @transient private var sigmasAt = 0
  /** The means scaled at this vector's version `scaledAt` and the
    * normalizer's version `normAt` (null: none cached).
    */
  @transient private var scaledMeans: Array[Double] = _
  @transient private var scaledAt = 0
  @transient private var normAt = 0

  def add(v: Array[Double]): Unit = {
    require(v.length == dim, s"dim mismatch: ${v.length} vs $dim")
    ver += 1
    var i = 0
    while (i < dim) {
      counts(i) += 1
      val d = v(i) - means(i)
      means(i) += d / counts(i)
      m2s(i) += d * (v(i) - means(i))
      i += 1
    }
  }

  private[core] def version: Int = ver

  def count(i: Int): Double = counts(i)
  def mean(i: Int): Double  = means(i)
  /** σ of dim i, from a σ vector cached until the next [[add]] or [[decayDims]]. */
  def std(i: Int): Double = {
    if (sigmas == null || sigmasAt != ver) {
      if (sigmas == null) sigmas = new Array[Double](dim)
      var j = 0
      while (j < dim) {
        sigmas(j) = if (counts(j) > 1) math.sqrt(math.max(m2s(j) / counts(j), 0.0)) else 0.0
        j += 1
      }
      sigmasAt = ver
    }
    sigmas(i)
  }

  /** The means scaled by `norm` (what `norm.scale` gives them), cached: a
    * change of version recomputes every dim, a change of `norm`'s ranges
    * only the dims in its span-change set. Every call must pass the same
    * normalizer (an engine passes its own), and the caller must not write
    * to the result.
    */
  private[core] def scaledMean(norm: Normalizer): Array[Double] = {
    if (scaledMeans == null || scaledAt != ver) {
      if (scaledMeans == null) scaledMeans = new Array[Double](dim)
      var i = 0
      while (i < dim) { scaledMeans(i) = norm.scaled(i, means(i)); i += 1 }
    } else if (normAt != norm.version) {
      var i = 0
      while (i < dim) {
        if (norm.changedSince(normAt, i)) scaledMeans(i) = norm.scaled(i, means(i))
        i += 1
      }
    }
    scaledAt = ver
    normAt = norm.version
    scaledMeans
  }

  def totalCount: Double = if (dim == 0) 0 else counts(0)

  /** Whether σ is defined: at least two fingerprints counted. */
  def sigmaDefined: Boolean = totalCount >= 2

  /** Soft plasticity: keep each dim's mean/σ but shrink its effective count
    * so subsequent fingerprints move the distribution `1/factor`× faster.
    * Avoids the discontinuity a hard reset would inject into similarity.
    */
  def decayDims(idx: IterableOnce[Int], factor: Double): Unit = {
    ver += 1
    idx.iterator.foreach { i =>
      if (counts(i) > 0) { counts(i) *= factor; m2s(i) *= factor }
    }
  }
}

/** Everything the repository stores per concept (paper Alg. 1 line 26):
  * the concept fingerprint, its classifier, the normal-similarity record,
  * plus the F_SC statistics feeding the intra-classifier weight v_sc.
  *
  * It also owns the concept's lifecycle (DESIGN.md §4, freeze-after-budget).
  * A new concept is *open*: [[absorb]] incorporates each fingerprint into
  * `stats`. After its budget it *freezes*, and [[absorb]] records the
  * normal similarity instead. Once that record is complete the concept is
  * [[armed]] and absorbs nothing. [[onSplit]] (classifier growth, §IV) and
  * [[markActivated]] (re-selection at a drift) re-open it.
  */
final class ConceptState(
    val id: Int,
    val dim: Int,
    val classifier: repro.classifier.HoeffdingTree,
) extends Serializable {
  /** Concept fingerprint F_S: distribution of each mi over incorporated fingerprints. */
  val stats = new RunningVec(dim)

  /** F_SC fingerprints: this concept's classifier applied to windows drawn
    * from whatever concept is currently active (paper §III-B-2).
    */
  val scStats = new RunningVec(dim)

  /** Normal similarity record (μ_c, σ_c), each sample at unit weight. */
  val simStats = new repro.classifier.GaussianEstimator

  /** Retained raw sample fingerprints (paper §IV): at model-selection time
    * the self-similarity band is recomputed from these under the *current*
    * weighting scheme, so stored similarity records never go stale as the
    * normalizer and dynamic weights train.
    */
  val sampleFps = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]

  /** splitEvents value at the last plasticity reset. */
  private var seenSplitEvents: Long = classifier.splitEvents

  /** Remaining fingerprint-incorporation budget. The concept fingerprint
    * trains on a bounded number of windows per (re)activation and then
    * freezes; a frozen reference makes post-drift dissimilarity persistent,
    * so the detector accumulates evidence instead of racing a
    * representation that would otherwise absorb the emerging concept.
    */
  private var openRemaining: Int = ConceptState.InitialBudget

  /** Total budget granted since this concept was last (re)activated. Split
    * re-openings stop once this reaches [[ConceptState.MaxPerActivation]],
    * otherwise a steadily growing tree would keep the concept unfrozen
    * forever and detection would never arm.
    */
  private var openedSinceActivation: Int = ConceptState.InitialBudget

  /** Remaining normal-similarity samples to record. The record (μ_c, σ_c)
    * is collected just after the fingerprint freezes — open-phase sims have
    * a strong maturation trend that would widen the acceptance band until
    * it accepts anything, and late samples risk absorbing an undetected
    * drift.
    */
  private var simBudget: Int = ConceptState.SimBudget

  /** EWMA of the recorded similarities; each open-phase fingerprint resets it. */
  private var normEwma: Double = Double.NaN

  def frozen: Boolean = openRemaining <= 0

  /** The normal-similarity record and sample fingerprints are complete, so
    * detection against this concept may call a drift.
    */
  def armed: Boolean = simBudget <= 0

  /** Takes in one fingerprint of this concept while it is active. Open:
    * incorporate `fp` into `stats`. Frozen and not yet armed: record the
    * EWMA-smoothed `sim(fp)` — the *level* of normal similarity rather than
    * single-window sampling noise — and keep every third `fp` as a sample.
    * Armed: nothing.
    */
  def absorb(fp: Array[Double], sim: Array[Double] => Double): Unit =
    if (!frozen) {
      stats.add(fp)
      openRemaining -= 1
      normEwma = Double.NaN
    } else if (simBudget > 0) {
      val s = sim(fp)
      normEwma = if (normEwma.isNaN) s else 0.7 * normEwma + 0.3 * s
      simStats.add(normEwma)
      if (simBudget % 3 == 0) sampleFps += fp
      if (sampleFps.length > ConceptState.MaxSamples) sampleFps.remove(0)
      simBudget -= 1
    }

  /** Plasticity (§IV): acts once per classifier split since the last call,
    * and returns whether it acted. The soft decay of `dims` keeps their μ/σ
    * but lets new fingerprints move them faster, and the re-opened budget
    * lets the frozen representation absorb the new behaviour. A
    * `suspicious` split keeps the concept frozen: it usually means the tree
    * is learning an undetected emerging concept, and absorbing those
    * windows would poison this concept's representation.
    */
  def onSplit(dims: IterableOnce[Int], suspicious: Boolean): Boolean = {
    if (classifier.splitEvents <= seenSplitEvents) return false
    seenSplitEvents = classifier.splitEvents
    stats.decayDims(dims, 0.3)
    if (!suspicious) reopen(ConceptState.SplitBudget)
    true
  }

  /** Re-selection at a drift: re-open [[ConceptState.ReuseBudget]] and
    * record [[ConceptState.SimBudget]] / 3 similarities after it. A concept
    * leaves the active slot only armed (its record done) or to be discarded
    * as a fresh concept, so the record restarts from an empty budget.
    */
  def markActivated(): Unit = {
    openedSinceActivation = 0
    reopen(ConceptState.ReuseBudget)
    simBudget = ConceptState.SimBudget / 3
  }

  private def reopen(n: Int): Unit =
    if (openedSinceActivation < ConceptState.MaxPerActivation) {
      val grant = math.max(0, n - openRemaining)
      openRemaining += grant
      openedSinceActivation += grant
    }
}

object ConceptState {
  /** Fingerprints incorporated after concept creation (≈90 obs at P_C=3). */
  private[core] val InitialBudget = 30
  /** Budget re-opened when the classifier grows a branch (§IV plasticity). */
  private[core] val SplitBudget = 10
  /** Budget re-opened when a stored concept is re-selected at a drift. */
  private[core] val ReuseBudget = 10
  /** Max budget per activation; beyond this, split events no longer re-open. */
  private[core] val MaxPerActivation = 60
  /** Normal-similarity samples recorded after each freeze. */
  private[core] val SimBudget = 30
  /** Sample fingerprints retained for the self-similarity band. */
  private[core] val MaxSamples = 8
}

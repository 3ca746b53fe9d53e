package repro.core

/** Per-dimension running mean/std/count (Welford) over incorporated
  * fingerprints — the paper's (μ_mi, σ_mi, count_mi) triple representation
  * of a concept fingerprint (§III-A), in raw (unnormalized) units.
  */
final class RunningVec(val dim: Int) extends Serializable {
  private val counts = new Array[Double](dim)
  private val means  = new Array[Double](dim)
  private val m2s    = new Array[Double](dim)

  def add(v: Array[Double]): Unit = {
    require(v.length == dim, s"dim mismatch: ${v.length} vs $dim")
    var i = 0
    while (i < dim) {
      counts(i) += 1
      val d = v(i) - means(i)
      means(i) += d / counts(i)
      m2s(i) += d * (v(i) - means(i))
      i += 1
    }
  }

  def count(i: Int): Double = counts(i)
  def mean(i: Int): Double  = means(i)
  def std(i: Int): Double =
    if (counts(i) > 1) math.sqrt(math.max(m2s(i) / counts(i), 0.0)) else 0.0

  def meanVector: Array[Double] = means.clone()
  def totalCount: Double = if (dim == 0) 0 else counts(0)

  /** Whether σ is defined: at least two fingerprints counted. */
  def sigmaDefined: Boolean = totalCount >= 2

  /** Soft plasticity: keep each dim's mean/σ but shrink its effective count
    * so subsequent fingerprints move the distribution `1/factor`× faster.
    * Avoids the discontinuity a hard reset would inject into similarity.
    */
  def decayDims(idx: IterableOnce[Int], factor: Double): Unit =
    idx.iterator.foreach { i =>
      if (counts(i) > 0) { counts(i) *= factor; m2s(i) *= factor }
    }
}

/** Everything the repository stores per concept (paper Alg. 1 line 26):
  * the concept fingerprint, its classifier, the normal-similarity record,
  * plus the F_SC statistics feeding the intra-classifier weight v_sc.
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

  /** splitEvents value at the last plasticity reset. */
  var seenSplitEvents: Long = classifier.splitEvents

  /** Retained raw sample fingerprints (paper §IV): at model-selection time
    * the self-similarity band is recomputed from these under the *current*
    * weighting scheme, so stored similarity records never go stale as the
    * normalizer and dynamic weights train.
    */
  val sampleFps = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]

  def addSample(fp: Array[Double]): Unit = {
    if (sampleFps.length >= ConceptState.MaxSamples) sampleFps.remove(0)
    sampleFps += fp
  }

  /** Remaining fingerprint-incorporation budget. The concept fingerprint
    * trains on a bounded number of windows per (re)activation and then
    * freezes; a frozen reference makes post-drift dissimilarity persistent,
    * so the detector accumulates evidence instead of racing a
    * representation that would otherwise absorb the emerging concept
    * (DESIGN.md §4). Classifier splits re-open the budget (plasticity).
    */
  var openRemaining: Int = ConceptState.InitialBudget

  /** Total budget granted since this concept was last (re)activated. Split
    * re-openings stop once this exceeds [[ConceptState.MaxPerActivation]],
    * otherwise a steadily growing tree would keep the concept unfrozen
    * forever and detection would never arm.
    */
  var openedSinceActivation: Int = ConceptState.InitialBudget

  /** Remaining normal-similarity samples to record. The record (μ_c, σ_c)
    * is collected just after the fingerprint freezes — open-phase sims have
    * a strong maturation trend that would widen the acceptance band until
    * it accepts anything, and late samples risk absorbing an undetected
    * drift.
    */
  var simBudget: Int = ConceptState.SimBudget

  def frozen: Boolean = openRemaining <= 0

  def grantBudget(n: Int): Unit = {
    if (openedSinceActivation >= ConceptState.MaxPerActivation) return
    val grant = math.max(0, n - openRemaining)
    openRemaining += grant
    openedSinceActivation += grant
  }

  def markActivated(): Unit = {
    openedSinceActivation = 0
    grantBudget(ConceptState.ReuseBudget)
    simBudget = math.max(simBudget, ConceptState.SimBudget / 3)
  }
}

object ConceptState {
  /** Fingerprints incorporated after concept creation (≈90 obs at P_C=3). */
  val InitialBudget = 30
  /** Budget re-opened when the classifier grows a branch (§IV plasticity). */
  val SplitBudget = 10
  /** Budget re-opened when a stored concept is re-selected at a drift. */
  val ReuseBudget = 10
  /** Max budget per activation; beyond this, split events no longer re-open. */
  val MaxPerActivation = 60
  /** Normal-similarity samples recorded after each freeze. */
  val SimBudget = 30
  /** Sample fingerprints retained for the self-similarity band. */
  val MaxSamples = 8
}

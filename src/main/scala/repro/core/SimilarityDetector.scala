package repro.core

import repro.classifier.GaussianEstimator
import repro.detector.Adwin

/** FiCSUM's drift detector (paper Algorithm 1, DESIGN.md §4): ADWIN on an
  * EWMA of the active concept's similarity to each new fingerprint, plus a
  * fast path on breaches of the concept's normal-similarity band `record`
  * (μ_c, σ_c). A drift restarts it as a new instance.
  */
private[core] final class SimilarityDetector extends Serializable {
  private val adwin = new Adwin(SimilarityDetector.AdwinDelta)
  private var ewma = Double.NaN
  /** Consecutive band breaches; negative while a split's patience lasts. */
  private var breaches = 0

  /** The smoothed similarity sits below the normal band, so a classifier
    * split now is suspicious (§IV plasticity).
    */
  def suspicious(record: GaussianEstimator): Boolean =
    record.weight >= 2 && !ewma.isNaN && ewma < record.mean - 2 * record.stdDev - 0.05

  /** Any split shifts classifier-dependent dims benignly for a while, so the
    * breach path gets extra patience and does not race the absorption
    * (ADWIN still guards real drifts).
    */
  def holdBreaches(): Unit = breaches = math.min(breaches, -10)

  /** Takes in one similarity and returns whether a drift fired. EWMA
    * smoothing: consecutive fingerprints overlap by w−P_C observations, so
    * raw sims carry heavy-tailed sampling noise that slows ADWIN's cut;
    * smoothing trades a little lag for a much cleaner level shift. Fast
    * path: a deep, sustained breach of the normal band is called at once
    * rather than waiting for ADWIN's conservative bound — at these segment
    * lengths detection lag directly caps concept-tracking (C-F1).
    */
  def add(sim: Double, record: GaussianEstimator): Boolean = {
    ewma = if (ewma.isNaN) sim else 0.6 * ewma + 0.4 * sim
    breaches = if (ewma < record.mean - math.max(3 * record.stdDev, 0.1)) breaches + 1 else 0
    adwin.add(ewma) || breaches >= 5
  }
}

private[core] object SimilarityDetector {
  /** ADWIN δ on the smoothed similarity sequence. */
  private val AdwinDelta = 0.8
}

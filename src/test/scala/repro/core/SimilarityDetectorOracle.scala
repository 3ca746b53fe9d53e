package repro.core

import repro.classifier.GaussianEstimator
import repro.detector.Adwin

/** FiCSUM's drift detector before [[SimilarityDetector]] owned it: the
  * three engine fields and the lines of `FiCSUM.step` and `restartDetector`
  * that read or wrote them, kept verbatim as the test oracle. `active`
  * stands in for the active concept, of which they read only `simStats`.
  */
final class SimilarityDetectorOracle {
  import SimilarityDetectorOracle.{Active, AdwinDelta}

  private var adwin      = new Adwin(AdwinDelta)
  private var simEwma: Double = Double.NaN
  var breachCount: Int = 0

  def restartDetector(): Unit = {
    adwin = new Adwin(AdwinDelta)
    simEwma = Double.NaN
    breachCount = 0
  }

  def suspicious(active: Active): Boolean = {
    val suspicious = active.simStats.weight >= 2 && !simEwma.isNaN &&
      simEwma < active.simStats.mean - 2 * active.simStats.stdDev - 0.05
    suspicious
  }

  /** What `step` did when `onSplit` returned true. */
  def onSplit(): Unit = breachCount = math.min(breachCount, -10)

  /** The detection block; `step` called `onDrift` when this held and the
    * concept was armed.
    */
  def detect(simA: Double, active: Active): Boolean = {
    simEwma = if (simEwma.isNaN) simA else 0.6 * simEwma + 0.4 * simA
    if (simEwma < active.simStats.mean - math.max(3 * active.simStats.stdDev, 0.1))
      breachCount += 1
    else breachCount = 0
    val cut = adwin.add(simEwma)
    cut || breachCount >= 5
  }
}

object SimilarityDetectorOracle {
  final case class Active(simStats: GaussianEstimator)
  private val AdwinDelta = 0.8
}

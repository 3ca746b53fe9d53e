package repro.detector

import repro.classifier.GaussianEstimator

/** EDDM (Baena-García et al., 2006): tracks the distance between
  * consecutive classification errors. Under a stable concept the mean
  * distance between errors grows; drift is signalled when the current
  * (mean + 2·std) of error distances falls below `Alpha` times its
  * observed maximum. (EDDM's warning level is not implemented: no caller reads it.)
  *
  * Feed 1.0 for an error and 0.0 for a correct prediction.
  */
final class Eddm extends Serializable {
  import Eddm._

  private var i          = 0L
  private var lastError  = -1L
  private var distances  = new GaussianEstimator
  private var maxLevel   = Double.MinValue

  /** Clear all state. */
  def reset(): Unit = {
    i = 0; lastError = -1; distances = new GaussianEstimator; maxLevel = Double.MinValue
  }

  /** Feed one value; returns true iff a drift was detected at this step. */
  def add(value: Double): Boolean = {
    i += 1
    if (value <= 0.5) return false // correct prediction: nothing to update
    if (lastError >= 0) distances.add((i - lastError).toDouble)
    lastError = i
    if (distances.weight < MinErrors) return false
    val level = distances.mean + 2.0 * distances.stdDev
    if (level > maxLevel) maxLevel = level
    val ratio = level / maxLevel
    if (ratio < Alpha) { reset(); true } else false
  }
}

object Eddm {
  /** Drift threshold on (mean + 2·std) relative to its maximum. */
  private val Alpha = 0.90
  /** Error distances to collect before a drift can be signalled. */
  private val MinErrors = 30
}

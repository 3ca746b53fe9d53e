package repro.classifier

/** Weighted running Gaussian estimate of a single numeric value
  * (mean/variance via Welford's algorithm): the Hoeffding tree's numeric
  * attribute observers, FiCSUM's normal-similarity record and EDDM's
  * error-distance statistics. At unit weight it is the plain Welford update.
  */
final class GaussianEstimator extends Serializable {
  private var w: Double    = 0.0
  private var mu: Double   = 0.0
  private var m2: Double   = 0.0
  // max(stdDev, 1e-6), the σ that pdf and cdf use; it changes only in add.
  // It follows from w and m2, so it is not serialized but recomputed.
  @transient private var sd: Double = 1e-6

  def weight: Double = w
  def mean: Double   = mu
  def variance: Double = if (w > 1e-12) math.max(m2 / w, 0.0) else 0.0
  def stdDev: Double = math.sqrt(variance)

  def add(v: Double, weight: Double = 1.0): Unit = {
    if (weight <= 0) return
    w += weight
    val delta = v - mu
    mu += delta * weight / w
    m2 += weight * delta * (v - mu)
    sd = math.max(stdDev, 1e-6)
  }

  private def readObject(in: java.io.ObjectInputStream): Unit = {
    in.defaultReadObject()
    sd = math.max(stdDev, 1e-6)
  }

  /** Gaussian density at `v`; degenerates to a narrow spike when the
    * observed variance is ~0 (all values identical so far).
    */
  def pdf(v: Double): Double = {
    val z  = (v - mu) / sd
    math.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.Pi))
  }

  /** P(attribute <= v) under the fitted Gaussian. */
  def cdf(v: Double): Double = {
    if (w <= 0) return 0.5
    0.5 * (1.0 + erf((v - mu) / (sd * math.sqrt(2.0))))
  }

  // Abramowitz–Stegun 7.1.26 rational approximation; |error| < 1.5e-7.
  private def erf(x: Double): Double = {
    val sign = if (x < 0) -1.0 else 1.0
    val a = math.abs(x)
    val t = 1.0 / (1.0 + 0.3275911 * a)
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-a * a)
    sign * y
  }
}

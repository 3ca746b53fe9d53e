package repro.meta

/** Sequence-level meta-information (Table I). [[describe]] maps a
  * univariate behaviour-source sequence to the 12 Table I values in one
  * shared pass, guarding degenerate inputs (short or constant sequences)
  * with well-defined fallbacks so fingerprints never contain NaN/Inf.
  */
object SeqStats {

  val AllSlots = 0xFFF
  /** Slots that need the centred passes: stdev … pacf2 and turning. */
  private val CentredSlots = 0x2FE
  private val MiSlot = 1 << 8
  private val Imf1Slot = 1 << 10
  private val Imf2Slot = 1 << 11
  /** Equal-width histogram bins of the MI and IMF-entropy estimates. */
  private val Bins = 8

  /** The 12 Table I values of `xs` in [[MetaFunctions.all]] order (slot i
    * is `all(i)`). `slots` is a bit mask over those indices: groups with no
    * selected slot are skipped and read 0, so a mean-only fingerprint costs
    * one pass.
    *
    * Shared quantities are computed once: the mean, then Σ(x−μ)² (std and
    * the ACF denominator), then one pass for the standardized third and
    * fourth moments, the lag-1/2 ACF numerators and the turning points.
    * PACF follows from the ACF by Durbin–Levinson, and the EMD chain sifts
    * IMF2 from IMF1's residual.
    */
  def describe(xs: Array[Double], slots: Int = AllSlots): Array[Double] = {
    val out = new Array[Double](12)
    val n = xs.length
    var s = 0.0; var i = 0
    while (i < n) { s += xs(i); i += 1 }
    val mu = if (n == 0) 0.0 else s / n
    out(0) = mu

    if ((slots & CentredSlots) != 0 && n >= 2) {
      val dev = new Array[Double](n)
      var ss = 0.0
      i = 0
      while (i < n) { val d = xs(i) - mu; dev(i) = d; ss += d * d; i += 1 }
      // Population standard deviation.
      val sd = math.sqrt(ss / n)
      out(1) = sd
      var s3 = 0.0; var s4 = 0.0; var num1 = 0.0; var num2 = 0.0; var tp = 0
      i = 0
      while (i < n) {
        val d = dev(i)
        val z = d / sd
        s3 += z * z * z
        s4 += z * z * z * z
        if (i + 1 < n) {
          num1 += d * dev(i + 1)
          if (i + 2 < n) num2 += d * dev(i + 2)
          if (i > 0 && (xs(i) - xs(i - 1)) * (xs(i + 1) - xs(i)) < 0) tp += 1
        }
        i += 1
      }
      // Standardized moments (kurtosis non-excess: Gaussian => 3); 0 for
      // (near-)constant sequences.
      if (n >= 3 && !(sd < 1e-12)) out(2) = s3 / n
      if (n >= 4 && !(sd < 1e-12)) out(3) = s4 / n
      // Autocorrelation at lags 1 and 2; 0 for degenerate sequences.
      if (n > 2 && !(ss < 1e-12)) out(4) = num1 / ss
      if (n > 3 && !(ss < 1e-12)) out(5) = num2 / ss
      // Fraction of interior points that are local extrema.
      if (n >= 3) out(9) = tp.toDouble / (n - 2)
    }
    // Partial autocorrelation via Durbin–Levinson:
    // pacf(1) = acf(1); pacf(2) = (acf(2) − acf(1)²) / (1 − acf(1)²).
    val r1 = out(4); val r2 = out(5)
    out(6) = r1
    val denom = 1.0 - r1 * r1
    out(7) = if (math.abs(denom) < 1e-9) 0.0 else (r2 - r1 * r1) / denom

    if ((slots & MiSlot) != 0) out(8) = lagMutualInformation(xs)
    if ((slots & (Imf1Slot | Imf2Slot)) != 0 && n >= 8) {
      val (imf1, residual) = Emd.siftImf(xs)
      if ((slots & Imf1Slot) != 0) out(10) = histogramEntropy(imf1)
      if ((slots & Imf2Slot) != 0) out(11) = histogramEntropy(Emd.siftImf(residual)._1)
    }
    out
  }

  /** Counts on the equal-width [[Bins]]-bin grid over the range of `xs`,
    * row-major Bins × Bins: entry a·Bins + b counts the i with
    * bin(x_i) = a and bin(x_{i+lag}) = b, for lag 0 (the histogram of `xs`,
    * on the diagonal) or 1. Empty when `xs` has no range (constant input).
    * The bin of v is min(Bins − 1, ⌊(v − lo) / (hi − lo) · Bins⌋).
    */
  private def binCounts(xs: Array[Double], lag: Int): Array[Double] = {
    var lo = Double.PositiveInfinity; var hi = Double.NegativeInfinity
    var i = 0
    while (i < xs.length) { if (xs(i) < lo) lo = xs(i); if (xs(i) > hi) hi = xs(i); i += 1 }
    if (!(hi > lo)) return Array.emptyDoubleArray
    val counts = new Array[Double](Bins * Bins)
    var prev = 0
    i = 0
    while (i < xs.length) {
      val b = math.min(Bins - 1, ((xs(i) - lo) / (hi - lo) * Bins).toInt)
      if (i >= lag) counts((if (lag == 0) b else prev) * Bins + b) += 1
      prev = b
      i += 1
    }
    counts
  }

  /** Lag-1 mutual information (nats) between x_t and x_{t+1}, estimated on
    * an equal-width joint histogram. Captures nonlinear temporal dependence.
    */
  private[meta] def lagMutualInformation(xs: Array[Double]): Double = {
    val n = xs.length - 1
    if (n < 4) return 0.0
    val joint = binCounts(xs, 1)
    if (joint.isEmpty) return 0.0
    val px = new Array[Double](Bins); val py = new Array[Double](Bins)
    var k = 0
    while (k < joint.length) { px(k / Bins) += joint(k); py(k % Bins) += joint(k); k += 1 }
    var mi = 0.0
    k = 0
    while (k < joint.length) {
      val pab = joint(k) / n
      if (pab > 0) mi += pab * math.log(pab * n * n / (px(k / Bins) * py(k % Bins)))
      k += 1
    }
    math.max(mi, 0.0)
  }

  /** Shannon entropy (nats) of an equal-width histogram of the sequence. */
  private[meta] def histogramEntropy(xs: Array[Double]): Double = {
    if (xs.length < 2) return 0.0
    val counts = binCounts(xs, 0)
    var h = 0.0
    var k = 0
    while (k < counts.length) {
      val p = counts(k) / xs.length
      if (p > 0) h -= p * math.log(p)
      k += Bins + 1
    }
    h
  }
}

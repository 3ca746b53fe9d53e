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
  /** The MI and IMF-entropy slots: their histograms and EMD sifting take
    * most of a full call's time (~7 µs on a 50-value window).
    */
  val HistogramSlots: Int = MiSlot | Imf1Slot | Imf2Slot
  /** Equal-width histogram bins of the MI and IMF-entropy estimates. */
  private val Bins = 8

  /** The kernel's scratch arrays: the histogram arrays, and the
    * length-sized ones grown to the longest input so far. [[describe]]
    * writes its 12 values into `out`. A workspace serves one caller at a
    * time: each chunk of a fingerprint call has its own, so the chunks of
    * one call may run on several threads, one workspace each.
    */
  final class Workspace {
    private[meta] val out = new Array[Double](12)
    private[meta] val joint = new Array[Double](Bins * Bins)
    private[meta] val px = new Array[Double](Bins)
    private[meta] val py = new Array[Double](Bins)
    private[meta] val hist = new Array[Double](Bins)
    private[meta] var dev: Array[Double] = Array.emptyDoubleArray
    private[meta] var h: Array[Double] = Array.emptyDoubleArray
    private[meta] var next: Array[Double] = Array.emptyDoubleArray
    private[meta] var residual: Array[Double] = Array.emptyDoubleArray
    private[meta] var maxIdx: Array[Int] = Array.emptyIntArray
    private[meta] var minIdx: Array[Int] = Array.emptyIntArray

    /** Grows the length-sized arrays to hold an input of n values. */
    private[meta] def ensure(n: Int): Unit =
      if (dev.length < n) {
        dev = new Array[Double](n)
        h = new Array[Double](n); next = new Array[Double](n)
        residual = new Array[Double](n)
        maxIdx = new Array[Int](n + 2); minIdx = new Array[Int](n + 2)
      }
  }

  /** The 12 Table I values of `xs`, in a fresh array. */
  def describe(xs: Array[Double], slots: Int = AllSlots): Array[Double] =
    describe(xs, 0, xs.length, slots, new Workspace)

  /** The 12 Table I values of `xs(from until from + n)` in
    * [[MetaFunctions.all]] order (slot i is `all(i)`), written into and
    * returned as `ws.out`. `slots` is a bit mask over those indices: groups
    * with no selected slot are skipped and read 0, so a mean-only
    * fingerprint costs one pass. Nothing is allocated once `ws` has grown
    * to n.
    *
    * Shared quantities are computed once: the mean, then Σ(x−μ)² (std and
    * the ACF denominator), then one pass for the standardized third and
    * fourth moments, the lag-1/2 ACF numerators and the turning points.
    * PACF follows from the ACF by Durbin–Levinson, and the EMD chain sifts
    * IMF2 from IMF1's residual.
    */
  def describe(xs: Array[Double], from: Int, n: Int, slots: Int, ws: Workspace): Array[Double] = {
    val out = ws.out
    java.util.Arrays.fill(out, 0.0)
    var s = 0.0; var i = 0
    while (i < n) { s += xs(from + i); i += 1 }
    val mu = if (n == 0) 0.0 else s / n
    out(0) = mu

    if ((slots & CentredSlots) != 0 && n >= 2) {
      ws.ensure(n)
      val dev = ws.dev
      var ss = 0.0
      i = 0
      while (i < n) { val d = xs(from + i) - mu; dev(i) = d; ss += d * d; i += 1 }
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
          val j = from + i
          if (i > 0 && (xs(j) - xs(j - 1)) * (xs(j + 1) - xs(j)) < 0) tp += 1
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

    if ((slots & MiSlot) != 0) out(8) = lagMutualInformation(xs, from, n, ws)
    if ((slots & (Imf1Slot | Imf2Slot)) != 0 && n >= 8) {
      val imf1 = Emd.siftImf(xs, from, n, ws)
      if ((slots & Imf1Slot) != 0) out(10) = histogramEntropy(imf1, 0, n, ws)
      if ((slots & Imf2Slot) != 0) {
        val residual = ws.residual
        i = 0
        while (i < n) { residual(i) = xs(from + i) - imf1(i); i += 1 }
        out(11) = histogramEntropy(Emd.siftImf(residual, 0, n, ws), 0, n, ws)
      }
    }
    out
  }

  /** Counts into `counts` on the equal-width [[Bins]]-bin grid over the
    * range of `xs(from until from + n)`: for lag 0 the histogram (entry
    * a counts the i with bin(x_i) = a), for lag 1 the row-major
    * Bins × Bins joint counts (entry a·Bins + b counts the i with
    * bin(x_i) = a and bin(x_{i+1}) = b). False, with `counts` untouched,
    * when the values have no range (constant input). The bin of v is
    * min(Bins − 1, ⌊(v − lo) / (hi − lo) · Bins⌋).
    */
  private def binCounts(xs: Array[Double], from: Int, n: Int, lag: Int, counts: Array[Double]): Boolean = {
    var lo = Double.PositiveInfinity; var hi = Double.NegativeInfinity
    var i = from
    val end = from + n
    while (i < end) { if (xs(i) < lo) lo = xs(i); if (xs(i) > hi) hi = xs(i); i += 1 }
    if (!(hi > lo)) return false
    java.util.Arrays.fill(counts, 0.0)
    var prev = 0
    i = from
    while (i < end) {
      val b = math.min(Bins - 1, ((xs(i) - lo) / (hi - lo) * Bins).toInt)
      if (lag == 0) counts(b) += 1
      else if (i > from) counts(prev * Bins + b) += 1
      prev = b
      i += 1
    }
    true
  }

  /** Lag-1 mutual information (nats) between x_t and x_{t+1}, estimated on
    * an equal-width joint histogram. Captures nonlinear temporal dependence.
    */
  private[meta] def lagMutualInformation(xs: Array[Double], from: Int, len: Int, ws: Workspace): Double = {
    val n = len - 1
    if (n < 4) return 0.0
    val joint = ws.joint
    if (!binCounts(xs, from, len, 1, joint)) return 0.0
    val px = ws.px; val py = ws.py
    java.util.Arrays.fill(px, 0.0); java.util.Arrays.fill(py, 0.0)
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

  /** Shannon entropy (nats) of an equal-width histogram of `xs(from until from + n)`. */
  private[meta] def histogramEntropy(xs: Array[Double], from: Int, n: Int, ws: Workspace): Double = {
    if (n < 2) return 0.0
    val counts = ws.hist
    if (!binCounts(xs, from, n, 0, counts)) return 0.0
    var h = 0.0
    var k = 0
    while (k < Bins) {
      val p = counts(k) / n
      if (p > 0) h -= p * math.log(p)
      k += 1
    }
    h
  }
}

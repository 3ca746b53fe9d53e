package repro.meta

/** The per-function meta-information implementation that
  * [[SeqStats.describe]] replaced, kept verbatim as the test oracle: every
  * kernel slot must equal the matching function here bit for bit.
  */
object PerFunctionOracle {

  def mean(xs: Array[Double]): Double = {
    if (xs.isEmpty) return 0.0
    var s = 0.0; var i = 0
    while (i < xs.length) { s += xs(i); i += 1 }
    s / xs.length
  }

  /** Population standard deviation. */
  def stdDev(xs: Array[Double]): Double = {
    if (xs.length < 2) return 0.0
    val mu = mean(xs)
    var s = 0.0; var i = 0
    while (i < xs.length) { val d = xs(i) - mu; s += d * d; i += 1 }
    math.sqrt(s / xs.length)
  }

  /** Standardized third moment; 0 for (near-)constant sequences. */
  def skewness(xs: Array[Double]): Double = {
    if (xs.length < 3) return 0.0
    val mu = mean(xs); val sd = stdDev(xs)
    if (sd < 1e-12) return 0.0
    var s = 0.0; var i = 0
    while (i < xs.length) { val z = (xs(i) - mu) / sd; s += z * z * z; i += 1 }
    s / xs.length
  }

  /** Standardized fourth moment (non-excess; Gaussian => 3). */
  def kurtosis(xs: Array[Double]): Double = {
    if (xs.length < 4) return 0.0
    val mu = mean(xs); val sd = stdDev(xs)
    if (sd < 1e-12) return 0.0
    var s = 0.0; var i = 0
    while (i < xs.length) { val z = (xs(i) - mu) / sd; s += z * z * z * z; i += 1 }
    s / xs.length
  }

  /** Autocorrelation at the given lag; 0 for degenerate sequences. */
  def acf(xs: Array[Double], lag: Int): Double = {
    val n = xs.length
    if (n <= lag + 1) return 0.0
    val mu = mean(xs)
    var denom = 0.0; var i = 0
    while (i < n) { val d = xs(i) - mu; denom += d * d; i += 1 }
    if (denom < 1e-12) return 0.0
    var num = 0.0
    i = 0
    while (i < n - lag) { num += (xs(i) - mu) * (xs(i + lag) - mu); i += 1 }
    num / denom
  }

  /** Partial autocorrelation at lags 1 and 2 via Durbin–Levinson:
    * pacf(1) = acf(1); pacf(2) = (acf(2) − acf(1)²) / (1 − acf(1)²).
    */
  def pacf(xs: Array[Double], lag: Int): Double = {
    require(lag == 1 || lag == 2, "only lags 1 and 2 are used")
    val r1 = acf(xs, 1)
    if (lag == 1) r1
    else {
      val r2 = acf(xs, 2)
      val denom = 1.0 - r1 * r1
      if (math.abs(denom) < 1e-9) 0.0 else (r2 - r1 * r1) / denom
    }
  }

  /** Lag-1 mutual information (nats) between x_t and x_{t+1}, estimated on
    * an equal-width joint histogram. Captures nonlinear temporal dependence.
    */
  def lagMutualInformation(xs: Array[Double], bins: Int = 8): Double = {
    val n = xs.length - 1
    if (n < 4) return 0.0
    var lo = Double.PositiveInfinity; var hi = Double.NegativeInfinity
    var i = 0
    while (i < xs.length) { if (xs(i) < lo) lo = xs(i); if (xs(i) > hi) hi = xs(i); i += 1 }
    if (!(hi > lo)) return 0.0
    def bin(v: Double): Int = math.min(bins - 1, ((v - lo) / (hi - lo) * bins).toInt)
    val joint = Array.ofDim[Double](bins, bins)
    val px = new Array[Double](bins); val py = new Array[Double](bins)
    i = 0
    while (i < n) {
      val a = bin(xs(i)); val b = bin(xs(i + 1))
      joint(a)(b) += 1.0; px(a) += 1.0; py(b) += 1.0
      i += 1
    }
    var mi = 0.0
    var a = 0
    while (a < bins) {
      var b = 0
      while (b < bins) {
        val pab = joint(a)(b) / n
        if (pab > 0) mi += pab * math.log(pab * n * n / (px(a) * py(b)))
        b += 1
      }
      a += 1
    }
    math.max(mi, 0.0)
  }

  /** Fraction of interior points that are local extrema (turning points). */
  def turningPointRate(xs: Array[Double]): Double = {
    if (xs.length < 3) return 0.0
    var tp = 0
    var i = 1
    while (i < xs.length - 1) {
      val d1 = xs(i) - xs(i - 1)
      val d2 = xs(i + 1) - xs(i)
      if (d1 * d2 < 0) tp += 1
      i += 1
    }
    tp.toDouble / (xs.length - 2)
  }

  /** Shannon entropy (nats) of an equal-width histogram of the sequence. */
  def histogramEntropy(xs: Array[Double], bins: Int = 8): Double = {
    if (xs.length < 2) return 0.0
    var lo = Double.PositiveInfinity; var hi = Double.NegativeInfinity
    var i = 0
    while (i < xs.length) { if (xs(i) < lo) lo = xs(i); if (xs(i) > hi) hi = xs(i); i += 1 }
    if (!(hi > lo)) return 0.0
    val counts = new Array[Double](bins)
    i = 0
    while (i < xs.length) {
      counts(math.min(bins - 1, ((xs(i) - lo) / (hi - lo) * bins).toInt)) += 1
      i += 1
    }
    var h = 0.0
    i = 0
    while (i < bins) {
      val p = counts(i) / xs.length
      if (p > 0) h -= p * math.log(p)
      i += 1
    }
    h
  }

  // The allocating, cursor-per-point EMD sifting that the table-driven
  // [[Emd.siftImf]] replaced, kept verbatim so the IMF entropy slots have an
  // oracle independent of production sifting.

  def envelope(xs: Array[Double], idx: Array[Int]): Array[Double] = {
    val n = xs.length
    val out = new Array[Double](n)
    if (idx.length == 0) return out
    if (idx.length == 1) { java.util.Arrays.fill(out, xs(idx(0))); return out }
    var seg = 0
    var i = 0
    while (i < n) {
      while (seg < idx.length - 2 && i > idx(seg + 1)) seg += 1
      val i0 = idx(seg); val i1 = idx(seg + 1)
      val t = if (i1 == i0) 0.0 else (i - i0).toDouble / (i1 - i0)
      out(i) = xs(i0) * (1 - t) + xs(i1) * t
      i += 1
    }
    out
  }

  def extrema(xs: Array[Double]): (Array[Int], Array[Int]) = {
    val maxima = Array.newBuilder[Int]
    val minima = Array.newBuilder[Int]
    maxima += 0; minima += 0 // endpoint anchoring keeps envelopes spanning
    var i = 1
    while (i < xs.length - 1) {
      if (xs(i) > xs(i - 1) && xs(i) >= xs(i + 1)) maxima += i
      if (xs(i) < xs(i - 1) && xs(i) <= xs(i + 1)) minima += i
      i += 1
    }
    maxima += xs.length - 1; minima += xs.length - 1
    (maxima.result(), minima.result())
  }

  /** Extract one IMF from `xs` by sifting; returns (imf, residual). A
    * signal with no interior extrema is a pure trend: its IMF is zero and
    * the residual is the signal itself. IMF k+1 is sifted from IMF k's
    * residual.
    */
  def siftImf(xs: Array[Double], maxSift: Int = 4): (Array[Double], Array[Double]) = {
    val n = xs.length
    var h = xs.clone()
    var pass = 0
    var ok = true
    while (pass < maxSift && ok) {
      val (maxIdx, minIdx) = extrema(h)
      // Fewer than one interior extremum of each kind: h is a trend.
      if (maxIdx.length <= 2 || minIdx.length <= 2) {
        if (pass == 0) h = new Array[Double](n) // pure trend: zero IMF
        ok = false
      } else {
        val upper = envelope(h, maxIdx)
        val lower = envelope(h, minIdx)
        val next = new Array[Double](n)
        var i = 0
        while (i < n) { next(i) = h(i) - 0.5 * (upper(i) + lower(i)); i += 1 }
        h = next
      }
      pass += 1
    }
    val residual = new Array[Double](n)
    var i = 0
    while (i < n) { residual(i) = xs(i) - h(i); i += 1 }
    (h, residual)
  }

  /** Histogram entropy of the first `k` IMFs of `xs` (k in {1, 2} here). */
  def imfEntropy(xs: Array[Double], k: Int): Double = {
    require(k >= 1, "IMF index starts at 1")
    if (xs.length < 8) return 0.0
    var signal = xs
    var imf: Array[Double] = null
    var i = 0
    while (i < k) {
      val (m, res) = siftImf(signal)
      imf = m
      signal = res
      i += 1
    }
    histogramEntropy(imf)
  }

  /** The 12 functions in [[MetaFunctions.all]] (slot) order. */
  val all: IndexedSeq[Array[Double] => Double] = IndexedSeq(
    mean, stdDev, skewness, kurtosis, acf(_, 1), acf(_, 2), pacf(_, 1), pacf(_, 2),
    lagMutualInformation(_), turningPointRate, imfEntropy(_, 1), imfEntropy(_, 2))
}

package repro.meta

/** Empirical mode decomposition, used for the "entropy of intrinsic mode
  * functions 1 & 2" meta-information features (Ding & Luo 2019, Table I).
  *
  * Simplification vs the textbook algorithm (documented in DESIGN.md §4):
  * envelopes are linear interpolations between local extrema rather than
  * cubic splines, and sifting is capped at `maxSift` passes. The IMFs are
  * only consumed as discriminative scalars (histogram entropy), for which
  * the oscillatory content extracted by linear-envelope sifting suffices.
  */
object Emd {

  private def envelope(xs: Array[Double], idx: Array[Int]): Array[Double] = {
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

  private def extrema(xs: Array[Double]): (Array[Int], Array[Int]) = {
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
}

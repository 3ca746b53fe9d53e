package repro.meta

/** Empirical mode decomposition, used for the "entropy of intrinsic mode
  * functions 1 & 2" meta-information features (Ding & Luo 2019, Table I).
  *
  * Simplification vs the textbook algorithm (documented in DESIGN.md §4):
  * envelopes are linear interpolations between local extrema rather than
  * cubic splines, and sifting is capped at [[MaxSift]] passes. The IMFs are
  * only consumed as discriminative scalars (histogram entropy), for which
  * the oscillatory content extracted by linear-envelope sifting suffices.
  */
object Emd {

  /** Sifting passes per IMF. */
  private val MaxSift = 4

  /** Longest envelope segment whose interpolation weights are tabulated;
    * behaviour-source windows are shorter than this.
    */
  private val TableMax = 128

  /** t = a / b and 1 − t for 0 ≤ a ≤ b ≤ [[TableMax]], row b starting at
    * b(b+1)/2: the same correctly rounded doubles the division gives.
    */
  private val (tTable, oneMinusT) = {
    val t = new Array[Double]((TableMax + 1) * (TableMax + 2) / 2)
    val u = new Array[Double](t.length)
    var b = 1
    while (b <= TableMax) {
      var a = 0
      while (a <= b) {
        val k = b * (b + 1) / 2 + a
        t(k) = a.toDouble / b
        u(k) = 1 - t(k)
        a += 1
      }
      b += 1
    }
    (t, u)
  }

  /** Writes into `out` the linear interpolation of `h` between the knots
    * `idx(0 until k)` (strictly increasing from 0 to h.length − 1), one
    * segment at a time. Point i of segment (i0, i1] — [i0, i1] for the
    * first — is `h(i0) * (1 - t) + h(i1) * t` with t = (i − i0) / (i1 − i0).
    */
  private def envelope(h: Array[Double], idx: Array[Int], k: Int, out: Array[Double]): Unit = {
    var i = 0
    var s = 0
    while (s < k - 1) {
      val i0 = idx(s); val i1 = idx(s + 1)
      val a = h(i0); val c = h(i1)
      val len = i1 - i0
      if (len <= TableMax) {
        val row = len * (len + 1) / 2 - i0
        while (i <= i1) { out(i) = a * oneMinusT(row + i) + c * tTable(row + i); i += 1 }
      } else {
        while (i <= i1) {
          val t = (i - i0).toDouble / len
          out(i) = a * (1 - t) + c * t
          i += 1
        }
      }
      s += 1
    }
  }

  /** Extract one IMF from `xs` by sifting; returns (imf, residual). A
    * signal with no interior extrema is a pure trend: its IMF is zero and
    * the residual is the signal itself. IMF k+1 is sifted from IMF k's
    * residual.
    *
    * Each pass anchors both envelopes at the endpoints, so their knots are
    * 0, the interior maxima (minima), then n − 1. The buffers are allocated
    * once per call: sifting ping-pongs between `h` and `next`.
    */
  def siftImf(xs: Array[Double]): (Array[Double], Array[Double]) = {
    val n = xs.length
    var h = xs.clone()
    var next = new Array[Double](n)
    val upper = new Array[Double](n)
    val maxIdx = new Array[Int](n + 2)
    val minIdx = new Array[Int](n + 2)
    var pass = 0
    var ok = true
    while (pass < MaxSift && ok) {
      var nMax = 1; var nMin = 1
      var i = 1
      while (i < n - 1) {
        if (h(i) > h(i - 1) && h(i) >= h(i + 1)) { maxIdx(nMax) = i; nMax += 1 }
        if (h(i) < h(i - 1) && h(i) <= h(i + 1)) { minIdx(nMin) = i; nMin += 1 }
        i += 1
      }
      // Fewer than one interior extremum of each kind: h is a trend.
      if (nMax == 1 || nMin == 1) {
        if (pass == 0) java.util.Arrays.fill(h, 0.0) // pure trend: zero IMF
        ok = false
      } else {
        maxIdx(nMax) = n - 1; minIdx(nMin) = n - 1
        envelope(h, maxIdx, nMax + 1, upper)
        envelope(h, minIdx, nMin + 1, next)
        i = 0
        while (i < n) { next(i) = h(i) - 0.5 * (upper(i) + next(i)); i += 1 }
        val t = h; h = next; next = t
      }
      pass += 1
    }
    val residual = new Array[Double](n)
    var i = 0
    while (i < n) { residual(i) = xs(i) - h(i); i += 1 }
    (h, residual)
  }
}

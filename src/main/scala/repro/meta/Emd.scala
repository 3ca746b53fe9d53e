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

  /** The linear interpolation of `h` at point i between the knots
    * `idx(s)` and `idx(s + 1)` of i's segment: segment s holds the points
    * (idx(s), idx(s + 1)], and the first also holds point 0. It is
    * `h(i0) * (1 - t) + h(i1) * t` with t = (i − i0) / (i1 − i0).
    */
  private def interpolate(h: Array[Double], idx: Array[Int], s: Int, i: Int): Double = {
    val i0 = idx(s); val i1 = idx(s + 1)
    val len = i1 - i0
    if (len <= TableMax) {
      val k = len * (len + 1) / 2 + (i - i0)
      h(i0) * oneMinusT(k) + h(i1) * tTable(k)
    } else {
      val t = (i - i0).toDouble / len
      h(i0) * (1 - t) + h(i1) * t
    }
  }

  /** Sifts one IMF from `xs(from until from + n)` and returns the workspace
    * array that holds it in its first n entries (the rest is scratch). It
    * stays valid until the next sift on `ws`. A signal with no interior
    * extrema is a pure trend: its IMF is zero. IMF k+1 is sifted from
    * IMF k's residual, the signal minus the IMF.
    *
    * Each pass anchors both envelopes at the endpoints, so their knots are
    * 0, the interior maxima (minima), then n − 1, and writes
    * h(i) − (upper(i) + lower(i)) / 2 in one walk over the points, with a
    * segment cursor per envelope. The extrema scan writes every interior
    * index and advances a knot count by the test's outcome, and each cursor
    * advances by an integer sign bit at its segment's last point, so
    * neither takes a data-dependent branch. Sifting ping-pongs between two workspace
    * buffers.
    */
  def siftImf(xs: Array[Double], from: Int, n: Int, ws: SeqStats.Workspace): Array[Double] = {
    ws.ensure(n)
    var h = ws.h
    var next = ws.next
    val maxIdx = ws.maxIdx
    val minIdx = ws.minIdx
    System.arraycopy(xs, from, h, 0, n)
    var pass = 0
    var ok = true
    while (pass < MaxSift && ok) {
      var nMax = 1; var nMin = 1
      var i = 1
      while (i < n - 1) {
        val a = h(i - 1); val c = h(i); val e = h(i + 1)
        maxIdx(nMax) = i
        minIdx(nMin) = i
        nMax += (if (c > a & c >= e) 1 else 0)
        nMin += (if (c < a & c <= e) 1 else 0)
        i += 1
      }
      // Fewer than one interior extremum of each kind: h is a trend.
      if (nMax == 1 || nMin == 1) {
        if (pass == 0) java.util.Arrays.fill(h, 0, n, 0.0) // pure trend: zero IMF
        ok = false
      } else {
        maxIdx(nMax) = n - 1; minIdx(nMin) = n - 1
        var up = 0; var low = 0
        i = 0
        while (i < n) {
          val upper = interpolate(h, maxIdx, up, i)
          val lower = interpolate(h, minIdx, low, i)
          next(i) = h(i) - 0.5 * (upper + lower)
          // i ≤ the segment's last knot, so (knot − i − 1) >>> 31 is 1 at
          // the knot and 0 before it: the cursor moves on after its knot.
          up += (maxIdx(up + 1) - i - 1) >>> 31
          low += (minIdx(low + 1) - i - 1) >>> 31
          i += 1
        }
        val t = h; h = next; next = t
      }
      pass += 1
    }
    h
  }
}

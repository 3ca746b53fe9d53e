package perfbench

/** Growable primitive buffer for latency samples (ns), so recording a step
  * costs one array store and no boxing.
  */
final class LongBuf {
  private var a = new Array[Long](1024)
  var length = 0
  def +=(v: Long): Unit = {
    if (length == a.length) a = java.util.Arrays.copyOf(a, length * 2)
    a(length) = v
    length += 1
  }
  def ++=(o: LongBuf): Unit = { var i = 0; while (i < o.length) { this += o.a(i); i += 1 } }
  def apply(i: Int): Long = a(i)
  def sum: Long = { var s = 0L; var i = 0; while (i < length) { s += a(i); i += 1 }; s }
  def toArray: Array[Long] = java.util.Arrays.copyOf(a, length)
  def sorted: Array[Long] = { val s = toArray; java.util.Arrays.sort(s); s }
}

/** A percentile read off a sorted sample, with how many samples lie beyond it. */
final case class Pct(label: String, value: Double, n: Int, beyond: Int)

object Stats {

  /** Nearest-rank percentile (0 < p ≤ 1) of an ascending array. */
  def pct(sorted: Array[Long], p: Double): Pct = {
    val n = sorted.length
    val rank = math.min(n, math.max(1, math.ceil(p * n).toInt))
    Pct(f"p${p * 100}%.2f", sorted(rank - 1).toDouble, n, n - rank)
  }

  /** The highest percentile with at least ten samples beyond it (the
    * maximum when there are fewer than eleven samples).
    */
  def tail(sorted: Array[Long]): Pct = {
    val n = sorted.length
    if (n <= 10) Pct("max", sorted(n - 1).toDouble, n, 0)
    else pct(sorted, (n - 10).toDouble / n)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    if (n == 0) Double.NaN else if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.length

  /** Wall time of `f` in nanoseconds, with its result. */
  @inline def timed[A](f: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val r = f
    (r, System.nanoTime() - t0)
  }
}

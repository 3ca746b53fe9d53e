package repro.core

/** The sort-based `Similarity.sim` that the top-k selection replaced, kept
  * verbatim as the test oracle.
  */
object SimilarityOracle {

  def sim(a: Array[Double], b: Array[Double], w: Array[Double]): Double = {
    require(a.length == b.length && a.length == w.length, "length mismatch")
    val n = a.length
    val dev = new Array[Double](n)
    var i = 0
    while (i < n) {
      val d = w(i) * (a(i) - b(i))
      dev(i) = d * d
      i += 1
    }
    val k = math.max(1, (n + 15) / 16)
    java.util.Arrays.sort(dev)
    var dSq = 0.0
    i = n - k
    while (i < n) { dSq += dev(i); i += 1 }
    val rms = math.sqrt(dSq / k)
    val s0 = if (n == 1) 1.0 else 2.5
    1.0 / (1.0 + (rms / s0) * (rms / s0))
  }
}

/** The `RunningVec` whose σ and scaled means callers recomputed on every
  * read, kept verbatim (less `meanVector`) as the test oracle of the
  * versioned caches.
  */
final class RunningVecOracle(val dim: Int) {
  private val counts = new Array[Double](dim)
  private val means  = new Array[Double](dim)
  private val m2s    = new Array[Double](dim)

  def add(v: Array[Double]): Unit = {
    require(v.length == dim, s"dim mismatch: ${v.length} vs $dim")
    var i = 0
    while (i < dim) {
      counts(i) += 1
      val d = v(i) - means(i)
      means(i) += d / counts(i)
      m2s(i) += d * (v(i) - means(i))
      i += 1
    }
  }

  def count(i: Int): Double = counts(i)
  def mean(i: Int): Double  = means(i)
  def std(i: Int): Double =
    if (counts(i) > 1) math.sqrt(math.max(m2s(i) / counts(i), 0.0)) else 0.0

  def decayDims(idx: IterableOnce[Int], factor: Double): Unit =
    idx.iterator.foreach { i =>
      if (counts(i) > 0) { counts(i) *= factor; m2s(i) *= factor }
    }
}

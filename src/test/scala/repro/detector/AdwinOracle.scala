package repro.detector

import scala.collection.mutable.ArrayDeque

/** [[Adwin]] before its bound left the per-bucket loop and `compress`
  * stopped at the first width class within the limit, kept verbatim as the
  * test oracle.
  */
final class AdwinOracle(delta: Double = 0.002) extends Serializable {
  import AdwinOracle.{Bucket, MaxBucketsPerSize}

  private val buckets = new ArrayDeque[Bucket]() // index 0 = newest
  private var totalW  = 0L
  private var totalSum = 0.0

  def width: Long = totalW
  def mean: Double = if (totalW > 0) totalSum / totalW else 0.0

  private def compress(): Unit = {
    // Merge oldest pair whenever more than MaxBucketsPerSize share a width.
    var i = 0
    while (i < buckets.length) {
      val w = buckets(i).width
      var j = i
      var cnt = 0
      while (j < buckets.length && buckets(j).width == w) { cnt += 1; j += 1 }
      if (cnt > MaxBucketsPerSize) {
        // Merge the two *oldest* buckets of this width (indices j-1, j-2).
        val b1 = buckets(j - 1); val b2 = buckets(j - 2)
        val nw = b1.width + b2.width
        val m1 = b1.sum / b1.width; val m2 = b2.sum / b2.width
        val dm = m1 - m2
        val v  = b1.varTimesW + b2.varTimesW + dm * dm * b1.width * b2.width / nw
        buckets.remove(j - 1)
        buckets.update(j - 2, Bucket(b1.sum + b2.sum, v, nw))
        // A merge can cascade into the next width class.
        i = j - 2
      } else i = j
    }
  }

  private def windowVariance: Double = {
    if (totalW <= 1) return 0.0
    val mu = mean
    var acc = 0.0
    for (b <- buckets) {
      val bm = b.sum / b.width
      acc += b.varTimesW + b.width * (bm - mu) * (bm - mu)
    }
    math.max(acc / totalW, 0.0)
  }

  /** Feed one value; returns true iff a change was detected at this step. */
  def add(value: Double): Boolean = {
    buckets.prepend(Bucket(value, 0.0, 1L))
    totalW += 1
    totalSum += value
    compress()
    if (totalW < 10) return false

    val variance = windowVariance
    var detected = false
    var cut = true
    while (cut && buckets.length > 1) {
      cut = false
      // Accumulate from the oldest end (tail) towards the newest.
      var n0 = 0L; var s0 = 0.0
      var i = buckets.length - 1
      var done = false
      while (i >= 1 && !done) {
        n0 += buckets(i).width
        s0 += buckets(i).sum
        val n1 = totalW - n0
        if (n0 >= 5 && n1 >= 5) {
          val mu0 = s0 / n0
          val mu1 = (totalSum - s0) / n1
          val m = 1.0 / (1.0 / n0 + 1.0 / n1)
          val dd = math.log(2.0 * math.log(totalW.toDouble) / delta)
          val eps = math.sqrt((2.0 / m) * variance * dd) + (2.0 / (3.0 * m)) * dd
          if (math.abs(mu0 - mu1) > eps) {
            // Drop the oldest bucket and re-scan.
            val last = buckets.removeLast()
            totalW -= last.width
            totalSum -= last.sum
            detected = true
            cut = true
            done = true
          }
        }
        i -= 1
      }
    }
    detected
  }
}

object AdwinOracle {
  /** One histogram bucket: sum, variance·width and width of its values. */
  private final case class Bucket(sum: Double, varTimesW: Double, width: Long)

  /** Buckets kept per width before the two oldest merge (the histogram's M). */
  private val MaxBucketsPerSize = 5
}

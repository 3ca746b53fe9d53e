package repro.detector

import scala.collection.mutable.ArrayDeque

/** ADWIN (Bifet & Gavaldà, SDM 2007): adaptive windowing with an
  * exponential-histogram summary. The window of recent values is held as
  * buckets of exponentially growing width (at most `MaxBucketsPerSize`
  * buckets per width); on each insert, every bucket boundary is tested as a
  * cut point and the head of the window is dropped while any two sub-windows
  * have means that differ by more than the ADWIN bound
  * eps = sqrt(2/m · σ²_W · ln(2/δ')) + (2/3m) · ln(2/δ').
  */
final class Adwin(delta: Double) extends Serializable {
  import Adwin.{Bucket, MaxBucketsPerSize}

  private val buckets = new ArrayDeque[Bucket]() // index 0 = newest
  private var totalW  = 0L
  private var totalSum = 0.0

  def width: Long = totalW
  def mean: Double = if (totalW > 0) totalSum / totalW else 0.0

  private def compress(): Unit = {
    // Merge the oldest pair while more than MaxBucketsPerSize share a width.
    // Only the newest width class gains a bucket, and a merge adds one to
    // the next class only, so the first class within the limit ends it.
    var i = 0
    var over = true
    while (over && i < buckets.length) {
      val w = buckets(i).width
      var j = i
      while (j < buckets.length && buckets(j).width == w) j += 1
      over = j - i > MaxBucketsPerSize
      if (over) {
        // Merge the two *oldest* buckets of this width (indices j-1, j-2).
        val b1 = buckets(j - 1); val b2 = buckets(j - 2)
        val nw = b1.width + b2.width
        val m1 = b1.sum / b1.width; val m2 = b2.sum / b2.width
        val dm = m1 - m2
        val v  = b1.varTimesW + b2.varTimesW + dm * dm * b1.width * b2.width / nw
        buckets.remove(j - 1)
        buckets.update(j - 2, Bucket(b1.sum + b2.sum, v, nw))
        // The merged bucket heads the next width class.
        i = j - 2
      }
    }
  }

  /** Called with at least 10 values in the window (see [[add]]). */
  private def windowVariance: Double = {
    val mu = mean
    var acc = 0.0
    var i = 0
    while (i < buckets.length) {
      val b = buckets(i)
      val bm = b.sum / b.width
      acc += b.varTimesW + b.width * (bm - mu) * (bm - mu)
      i += 1
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
      // totalW only changes at a cut, which ends the scan.
      val dd = math.log(2.0 * math.log(totalW.toDouble) / delta)
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

object Adwin {
  /** One histogram bucket: sum, variance·width and width of its values. */
  private final case class Bucket(sum: Double, varTimesW: Double, width: Long)

  /** Buckets kept per width before the two oldest merge (the histogram's M). */
  private val MaxBucketsPerSize = 5
}

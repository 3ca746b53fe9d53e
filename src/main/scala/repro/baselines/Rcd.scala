package repro.baselines

import scala.collection.mutable
import repro.classifier.HoeffdingTree
import repro.detector.Eddm
import repro.eval.StreamSystem

/** RCD baseline (Gonçalves & De Barros 2013; paper Table VI): a Hoeffding
  * Tree with EDDM drift detection and a repository of
  * (classifier, observation-window) pairs. On drift, stored windows are
  * compared to the recent window with a per-feature two-sample
  * Kolmogorov–Smirnov test (stand-in for the original's KNN multivariate
  * test — same architecture: supervised detection, unsupervised distribution
  * test for recurrence selection).
  */
final class Rcd(numFeatures: Int, numClasses: Int) extends StreamSystem {
  import Rcd._

  val name = "RCD"

  private final class Stored(val id: Int, val tree: HoeffdingTree,
                             val sample: Array[Array[Double]]) extends Serializable

  private val repo = mutable.ArrayBuffer.empty[Stored]
  private var nextId = 0
  private var tree = new HoeffdingTree(numFeatures, numClasses)
  private var activeId = { nextId += 1; 0 }
  private val eddm = new Eddm()
  private val recent = new mutable.ArrayDeque[Array[Double]]()

  private var drifts = 0
  def driftCount: Int = drifts

  /** Two-sample KS statistic on one feature. */
  private def ksStat(a: Array[Double], b: Array[Double]): Double = {
    val sa = a.sorted; val sb = b.sorted
    var i = 0; var j = 0; var d = 0.0
    while (i < sa.length && j < sb.length) {
      if (sa(i) <= sb(j)) i += 1 else j += 1
      val fa = i.toDouble / sa.length
      val fb = j.toDouble / sb.length
      d = math.max(d, math.abs(fa - fb))
    }
    d
  }

  /** Approximate two-sided KS p-value (asymptotic Kolmogorov distribution). */
  private def ksPValue(d: Double, n: Int, m: Int): Double = {
    val en = math.sqrt(n.toDouble * m / (n + m))
    val t  = (en + 0.12 + 0.11 / en) * d
    var p = 0.0
    var k = 1
    while (k <= 100) {
      p += 2.0 * math.pow(-1.0, k - 1) * math.exp(-2.0 * k * k * t * t)
      k += 1
    }
    math.min(math.max(p, 0.0), 1.0)
  }

  private def meanPValue(stored: Array[Array[Double]], current: Array[Array[Double]]): Double = {
    var s = 0.0
    var f = 0
    while (f < numFeatures) {
      val a = stored.map(_(f))
      val b = current.map(_(f))
      s += ksPValue(ksStat(a, b), a.length, b.length)
      f += 1
    }
    s / numFeatures
  }

  def step(x: Array[Double], y: Int): (Int, Int) = {
    val l = tree.predict(x)
    tree.train(x, y)
    recent.append(x)
    if (recent.length > WindowSize) recent.removeHead()

    if (eddm.add(if (l != y) 1.0 else 0.0) && recent.length >= WindowSize) {
      drifts += 1
      val cur = recent.toArray
      // Archive the outgoing model with its window.
      repo += new Stored(activeId, tree, cur)
      // Look for a stored concept whose feature distribution matches.
      val best = repo.iterator
        .map(s => (s, meanPValue(s.sample, cur)))
        .filter(_._2 > KsAlpha)
        .maxByOption(_._2)
      best match {
        case Some((s, _)) =>
          tree = s.tree
          activeId = s.id
        case None =>
          activeId = nextId; nextId += 1
          tree = new HoeffdingTree(numFeatures, numClasses)
      }
    }
    (l, activeId)
  }
}

object Rcd {
  /** Recent observations stored with each model and compared on drift. */
  private val WindowSize = 50
  /** A stored window matches when its mean per-feature KS p-value exceeds this. */
  private val KsAlpha = 0.05
}

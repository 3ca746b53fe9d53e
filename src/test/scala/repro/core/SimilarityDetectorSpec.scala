package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.classifier.GaussianEstimator

class SimilarityDetectorSpec extends AnyFunSuite {

  /** A normal-similarity record of `n` values around `mean`; σ = 0 when
    * `spread` is 0, and weight < 2 when `n` < 2.
    */
  private def record(n: Int, mean: Double, spread: Double, rng: Random): GaussianEstimator = {
    val r = new GaussianEstimator
    (0 until n).foreach(_ => r.add(mean + spread * (2 * rng.nextDouble() - 1)))
    r
  }

  test("property: add and suspicious equal the oracle's after every call, across holds and restarts") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Piecewise-stationary similarities against records that sometimes
    // change, with splits (holds), plasticity queries and drift restarts.
    val cases = for {
      levels <- Gen.listOfN(3, Gen.choose(0.0, 1.0))
      noise <- Gen.oneOf(0.0, 0.02, 0.1)
      n <- Gen.choose(0, 400)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (levels.toIndexedSeq, noise, n, seed)
    var breachFires = 0; var cutFires = 0; var suspicions = 0
    val prop = Prop.forAll(cases) { case (levels, noise, n, seed) =>
      val rng = new Random(seed)
      def draw() = record(rng.nextInt(6), rng.nextDouble(), Seq(0.0, 0.01, 0.05, 0.2)(rng.nextInt(4)), rng)
      var det = new SimilarityDetector
      val oracle = new SimilarityDetectorOracle
      var rec = draw()
      (0 until n).forall { k =>
        if (rng.nextDouble() < 0.1) rec = draw()
        val u = rng.nextDouble()
        if (u < 0.03) { det = new SimilarityDetector; oracle.restartDetector(); true }
        else if (u < 0.1) { det.holdBreaches(); oracle.onSplit(); true }
        else if (u < 0.3) {
          val s = det.suspicious(rec)
          if (s) suspicions += 1
          s == oracle.suspicious(SimilarityDetectorOracle.Active(rec))
        } else {
          val sim = math.min(1.0, math.max(0.0, levels(k * levels.length / n) + noise * rng.nextGaussian()))
          val fired = det.add(sim, rec)
          val expected = oracle.detect(sim, SimilarityDetectorOracle.Active(rec))
          if (fired) { if (oracle.breachCount >= 5) breachFires += 1 else cutFires += 1 }
          fired == expected
        }
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
    assert(breachFires >= 50 && cutFires >= 50 && suspicions >= 50,
      s"breach $breachFires, ADWIN $cutFires, suspicious $suspicions: a path is barely exercised")
  }

  test("a constant similarity far below the band fires on the 5th add, and on the 15th after a hold") {
    val rec = record(4, 0.9, 0.0, new Random(1))
    val det = new SimilarityDetector
    assert((1 to 5).map(_ => det.add(0.1, rec)) == Seq(false, false, false, false, true))
    val held = new SimilarityDetector
    held.holdBreaches()
    assert((1 to 15).map(_ => held.add(0.1, rec)).indexWhere(identity) == 14)
  }

  test("a fresh detector is never suspicious") {
    val rng = new Random(2)
    val fresh = new SimilarityDetector
    assert(!fresh.suspicious(new GaussianEstimator))
    assert((0 until 100).forall(_ => !fresh.suspicious(record(2 + rng.nextInt(5), rng.nextDouble(), 0.05, rng))))
  }
}

package repro.detector

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class AdwinSpec extends AnyFunSuite {

  test("tracks the mean of a stationary sequence") {
    val ad = new Adwin(0.01)
    val rng = new Random(1)
    (0 until 500).foreach(_ => ad.add(0.3 + rng.nextGaussian() * 0.05))
    assert(math.abs(ad.mean - 0.3) < 0.02)
    assert(ad.width > 100)
  }

  test("detects an abrupt mean shift") {
    val ad = new Adwin(0.05)
    val rng = new Random(2)
    var detected = -1
    for (i <- 0 until 1000 if detected < 0) {
      val v = (if (i < 400) 0.8 else 0.3) + rng.nextGaussian() * 0.05
      if (ad.add(v)) detected = i
    }
    assert(detected > 400, s"false positive before the shift at $detected")
    assert(detected < 550, s"detection too slow: $detected")
  }

  test("window shrinks after detection") {
    val ad = new Adwin(0.05)
    val rng = new Random(3)
    (0 until 400).foreach(_ => ad.add(0.9 + rng.nextGaussian() * 0.02))
    val before = ad.width
    (0 until 200).foreach(_ => ad.add(0.1 + rng.nextGaussian() * 0.02))
    assert(ad.width < before + 200)
  }

  test("low false-positive rate on stationary data") {
    val rng = new Random(4)
    var fps = 0
    for (_ <- 0 until 10) {
      val ad = new Adwin(0.002)
      (0 until 500).foreach { _ =>
        if (ad.add(0.5 + rng.nextGaussian() * 0.1)) fps += 1
      }
    }
    assert(fps <= 2, s"false positives: $fps in 10 stationary trials")
  }

  test("detects gradual drift eventually") {
    val ad = new Adwin(0.05)
    val rng = new Random(5)
    var detected = -1
    for (i <- 0 until 2000 if detected < 0) {
      val level = if (i < 500) 0.5 else 0.5 + math.min(0.4, (i - 500) * 0.002)
      if (ad.add(level + rng.nextGaussian() * 0.05)) detected = i
    }
    assert(detected > 500 && detected < 1500, s"detected=$detected")
  }

  test("constant input never triggers") {
    val ad = new Adwin(0.05)
    var any = false
    (0 until 1000).foreach(_ => any |= ad.add(0.7))
    assert(!any)
  }

  test("property: add's flag, width and mean equal the oracle's bit for bit after every add") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Piecewise-stationary streams: 0/1 errors at each segment's rate under
    // ARF's and HTCD's δ, or values in [0, 1] around each segment's level
    // under FiCSUM's δ = 0.8.
    val cases = for {
      binary <- Gen.oneOf(true, false)
      delta <- if (binary) Gen.oneOf(0.001, 0.002) else Gen.const(0.8)
      levels <- Gen.listOfN(4, Gen.choose(0.0, 1.0))
      n <- Gen.choose(0, 3000)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (binary, delta, levels.toIndexedSeq, n, seed)
    var detections = 0
    val prop = Prop.forAll(cases) { case (binary, delta, levels, n, seed) =>
      val rng = new Random(seed)
      val ad = new Adwin(delta)
      val oracle = new AdwinOracle(delta)
      (0 until n).forall { i =>
        val level = levels(i * levels.length / n)
        val v =
          if (binary) (if (rng.nextDouble() < level) 1.0 else 0.0)
          else math.min(1.0, math.max(0.0, level + rng.nextGaussian() * 0.1))
        val flag = ad.add(v)
        if (flag) detections += 1
        flag == oracle.add(v) && ad.width == oracle.width &&
          java.lang.Double.doubleToRawLongBits(ad.mean) == java.lang.Double.doubleToRawLongBits(oracle.mean)
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
    assert(detections >= 100, s"only $detections detections: the streams barely exercise the cut path")
  }
}

class EddmSpec extends AnyFunSuite {

  /** Feed a Bernoulli error sequence with the given error rate. */
  private def feed(e: Eddm, rate: Double, n: Int, rng: Random): Int = {
    var detections = 0
    (0 until n).foreach { _ =>
      if (e.add(if (rng.nextDouble() < rate) 1.0 else 0.0)) detections += 1
    }
    detections
  }

  test("at most one spurious detection under a stable error rate") {
    val e = new Eddm()
    val rng = new Random(1)
    // EDDM is known to fire occasionally on stationary Bernoulli noise; the
    // bound checks it is rare, not absent.
    assert(feed(e, 0.1, 3000, rng) <= 1)
  }

  test("detects when the error rate jumps") {
    val rng = new Random(2)
    val e = new Eddm()
    feed(e, 0.05, 2000, rng)
    val det = feed(e, 0.5, 2000, rng)
    assert(det >= 1, "expected a drift detection after the error-rate jump")
  }

  test("improving error rate does not trigger") {
    val rng = new Random(3)
    val e = new Eddm()
    feed(e, 0.5, 1500, rng)
    assert(feed(e, 0.05, 1500, rng) == 0)
  }

  test("reset clears detection state") {
    val rng = new Random(4)
    val e = new Eddm()
    feed(e, 0.05, 1000, rng)
    e.reset()
    assert(feed(e, 0.05, 500, rng) == 0)
  }

  test("correct predictions alone never trigger") {
    val e = new Eddm()
    var any = false
    (0 until 5000).foreach(_ => any |= e.add(0.0))
    assert(!any)
  }
}

package repro.classifier

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** The scalar running mean/σ that `GaussianEstimator` at unit weight
  * replaced (FiCSUM's normal-similarity record and EDDM's error
  * distances), kept verbatim as the test oracle.
  */
final class RunningScalarOracle {
  private var n  = 0.0
  private var mu = 0.0
  private var m2 = 0.0

  def add(v: Double): Unit = {
    n += 1
    val d = v - mu
    mu += d / n
    m2 += d * (v - mu)
  }
  def count: Double = n
  def mean: Double  = mu
  def std: Double   = if (n > 1) math.sqrt(math.max(m2 / n, 0.0)) else 0.0
}

class GaussianEstimatorSpec extends AnyFunSuite {

  test("property: at unit weight, count, mean and sigma equal the scalar Welford update bit for bit") {
    val seqs = Gen.choose(0, 200).flatMap(n => Gen.listOfN(n, Gen.choose(-1e3, 1e3)))
    val prop = Prop.forAll(seqs) { xs =>
      val est = new GaussianEstimator
      val ref = new RunningScalarOracle
      def same(a: Double, b: Double) = java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)
      def agree = est.weight == ref.count && same(est.mean, ref.mean) && same(est.stdDev, ref.std)
      // Compared before the first add and after every add.
      agree && xs.forall { x => est.add(x); ref.add(x); agree }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, result.status.toString)
  }

  test("mean and variance match direct computation") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0, 10.0)
    val est = new GaussianEstimator
    xs.foreach(est.add(_))
    val mu = xs.sum / xs.length
    val v  = xs.map(x => (x - mu) * (x - mu)).sum / xs.length
    assert(math.abs(est.mean - mu) < 1e-9)
    assert(math.abs(est.variance - v) < 1e-9)
  }

  test("weighted adds behave like repeated adds") {
    val a = new GaussianEstimator
    val b = new GaussianEstimator
    a.add(2.0, 3.0)
    (1 to 3).foreach(_ => b.add(2.0))
    a.add(5.0, 1.0); b.add(5.0)
    assert(math.abs(a.mean - b.mean) < 1e-9)
    assert(math.abs(a.variance - b.variance) < 1e-9)
    assert(math.abs(a.weight - b.weight) < 1e-9)
  }

  test("zero or negative weight is ignored") {
    val est = new GaussianEstimator
    est.add(1.0)
    est.add(100.0, 0.0)
    est.add(100.0, -1.0)
    assert(est.mean == 1.0 && est.weight == 1.0)
  }

  test("cdf is monotone and centered") {
    val est = new GaussianEstimator
    Seq(-1.0, 0.0, 1.0, 0.5, -0.5).foreach(est.add(_))
    assert(est.cdf(est.mean) > 0.49 && est.cdf(est.mean) < 0.51)
    assert(est.cdf(-10) < est.cdf(0))
    assert(est.cdf(0) < est.cdf(10))
    assert(est.cdf(-100) < 0.01 && est.cdf(100) > 0.99)
  }

  test("pdf is positive and peaks at the mean") {
    val est = new GaussianEstimator
    Seq(1.0, 2.0, 3.0).foreach(est.add(_))
    assert(est.pdf(2.0) > est.pdf(0.0))
    assert(est.pdf(2.0) > est.pdf(4.0))
    assert(est.pdf(100.0) >= 0.0)
  }

  test("property: mean within observed range, variance non-negative") {
    val prop = Prop.forAll(Gen.nonEmptyListOf(Gen.choose(-100.0, 100.0))) { xs =>
      val est = new GaussianEstimator
      xs.foreach(est.add(_))
      est.mean >= xs.min - 1e-9 && est.mean <= xs.max + 1e-9 && est.variance >= 0.0
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), prop)
    assert(result.passed, result.status.toString)
  }

  test("degenerate (constant) distribution has ~zero variance") {
    val est = new GaussianEstimator
    (1 to 50).foreach(_ => est.add(3.3))
    assert(est.variance < 1e-12)
    assert(est.pdf(3.3) > est.pdf(3.4))
  }
}

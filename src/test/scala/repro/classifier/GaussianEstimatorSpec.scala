package repro.classifier

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.sparkstream.StreamingDrift.{deserialize, serialize}

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

/** `GaussianEstimator.pdf` and `cdf` from before the estimator kept its
  * floored σ — each call takes σ from `variance` afresh — kept verbatim
  * (estimator members qualified by `e`) as the test oracle.
  */
object EstimatorOracle {

  def pdf(e: GaussianEstimator, v: Double): Double = {
    val sd = math.max(e.stdDev, 1e-6)
    val z  = (v - e.mean) / sd
    math.exp(-0.5 * z * z) / (sd * math.sqrt(2 * math.Pi))
  }

  def cdf(e: GaussianEstimator, v: Double): Double = {
    if (e.weight <= 0) return 0.5
    val sd = math.max(e.stdDev, 1e-6)
    0.5 * (1.0 + erf((v - e.mean) / (sd * math.sqrt(2.0))))
  }

  private def erf(x: Double): Double = {
    val sign = if (x < 0) -1.0 else 1.0
    val a = math.abs(x)
    val t = 1.0 / (1.0 + 0.3275911 * a)
    val y = 1.0 - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t + 0.254829592) * t * math.exp(-a * a)
    sign * y
  }
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

  private def same(a: Double, b: Double) =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  /** Whether `e` and a Java copy of it give the oracle's pdf and cdf bits at every probe. */
  private def matchesOracle(e: GaussianEstimator, probes: Seq[Double]): Boolean = {
    val copy = deserialize[GaussianEstimator](serialize(e))
    (probes :+ e.mean).forall { v =>
      val (p, c) = (EstimatorOracle.pdf(e, v), EstimatorOracle.cdf(e, v))
      same(e.pdf(v), p) && same(e.cdf(v), c) && same(copy.pdf(v), p) && same(copy.cdf(v), c)
    }
  }

  test("property: after weighted adds, pdf and cdf equal the oracle bit for bit, also after a Java round trip") {
    val weights = Gen.frequency(
      6 -> Gen.const(1.0), 3 -> Gen.choose(1e-3, 20.0), 1 -> Gen.oneOf(0.0, -1.0, -1e-3))
    val values = Gen.oneOf(Gen.choose(-1e3, 1e3), Gen.choose(-1.0, 1.0))
    // Varied values, or one constant value that keeps σ at the 1e-6 floor.
    val adds = Gen.choose(0, 60).flatMap { n =>
      Gen.oneOf(
        Gen.listOfN(n, Gen.zip(values, weights)),
        values.flatMap(v => Gen.listOfN(n, weights.map(w => (v, w)))))
    }
    val probes = Gen.listOfN(4, Gen.oneOf(Gen.choose(-1e3, 1e3), Gen.choose(-2.0, 2.0)))
    var floored = 0
    val prop = Prop.forAll(adds, probes) { (xs, vs) =>
      val est = new GaussianEstimator
      // Compared before the first add and after every add.
      matchesOracle(est, vs) && xs.forall { case (x, w) =>
        est.add(x, w)
        if (est.weight > 0 && est.stdDev < 1e-6) floored += 1
        matchesOracle(est, vs :+ x)
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
    assert(floored >= 100, s"only $floored states at the 1e-6 floor")
  }

  test("pdf and cdf equal the oracle for a fresh estimator, one value, a constant run and ignored weights") {
    val probes = Seq(-1.0, 0.0, 1e-7, 3.3, 3.3 + 1e-6, 100.0)
    val fresh = new GaussianEstimator
    assert(matchesOracle(fresh, probes) && fresh.cdf(0.0) == 0.5)
    val ignored = new GaussianEstimator
    ignored.add(5.0, 0.0); ignored.add(5.0, -2.0)
    assert(ignored.weight == 0.0 && matchesOracle(ignored, probes))
    val one = new GaussianEstimator
    one.add(3.3, 2.5)
    assert(matchesOracle(one, probes))
    val constant = new GaussianEstimator
    (1 to 50).foreach(_ => constant.add(3.3))
    assert(constant.stdDev < 1e-6 && matchesOracle(constant, probes))
    constant.add(3.4, -1.0)
    assert(matchesOracle(constant, probes))
    constant.add(3.4)
    assert(constant.stdDev > 1e-6 && matchesOracle(constant, probes))
  }
}

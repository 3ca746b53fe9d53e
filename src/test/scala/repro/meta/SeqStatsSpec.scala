package repro.meta

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SeqStatsSpec extends AnyFunSuite {
  import SeqStats.describe
  import MetaFunctions._

  private def mean(xs: Array[Double]) = describe(xs)(Mean.slot)
  private def stdDev(xs: Array[Double]) = describe(xs)(StdDev.slot)
  private def skewness(xs: Array[Double]) = describe(xs)(Skew.slot)
  private def kurtosis(xs: Array[Double]) = describe(xs)(Kurtosis.slot)
  private def acf(xs: Array[Double], lag: Int) = describe(xs)(if (lag == 1) Acf1.slot else Acf2.slot)
  private def pacf(xs: Array[Double], lag: Int) = describe(xs)(if (lag == 1) Pacf1.slot else Pacf2.slot)
  private def mi(xs: Array[Double]) = describe(xs)(MutualInfo.slot)
  private def turningPointRate(xs: Array[Double]) = describe(xs)(TurningPoint.slot)
  private def histogramEntropy(xs: Array[Double]) =
    SeqStats.histogramEntropy(xs, 0, xs.length, new SeqStats.Workspace)

  private def gaussian(n: Int, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    Array.fill(n)(rng.nextGaussian())
  }

  test("mean of known sequence") {
    assert(mean(Array(1.0, 2.0, 3.0)) == 2.0)
    assert(mean(Array.empty[Double]) == 0.0)
  }

  test("stdDev of known sequence (population)") {
    assert(math.abs(stdDev(Array(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)) - 2.0) < 1e-9)
    assert(stdDev(Array(5.0)) == 0.0)
  }

  test("skewness: symmetric ~0, right-tailed > 0") {
    assert(math.abs(skewness(gaussian(20000, 1))) < 0.1)
    val rightTailed = gaussian(20000, 2).map(v => math.exp(v))
    assert(skewness(rightTailed) > 1.0)
    assert(skewness(Array(1.0, 1.0, 1.0)) == 0.0) // constant guard
  }

  test("kurtosis: gaussian ~3, uniform ~1.8") {
    assert(math.abs(kurtosis(gaussian(50000, 3)) - 3.0) < 0.25)
    val rng = new Random(4)
    val unif = Array.fill(50000)(rng.nextDouble())
    assert(math.abs(kurtosis(unif) - 1.8) < 0.1)
  }

  test("acf: iid ~0, AR(1) matches rho approximately") {
    assert(math.abs(acf(gaussian(5000, 5), 1)) < 0.05)
    val rng = new Random(6)
    val rho = 0.7
    val ar = new Array[Double](5000)
    var prev = 0.0
    for (i <- ar.indices) { prev = rho * prev + rng.nextGaussian(); ar(i) = prev }
    assert(math.abs(acf(ar, 1) - rho) < 0.05)
    assert(math.abs(acf(ar, 2) - rho * rho) < 0.07)
  }

  test("acf guards degenerate inputs") {
    assert(acf(Array(1.0, 1.0, 1.0, 1.0), 1) == 0.0)
    assert(acf(Array(1.0, 2.0), 2) == 0.0)
  }

  test("pacf lag 1 equals acf lag 1; lag-2 kills AR(1) dependence") {
    val rng = new Random(7)
    val ar = new Array[Double](8000)
    var prev = 0.0
    for (i <- ar.indices) { prev = 0.6 * prev + rng.nextGaussian(); ar(i) = prev }
    assert(pacf(ar, 1) == acf(ar, 1))
    assert(math.abs(pacf(ar, 2)) < 0.08, s"pacf2=${pacf(ar, 2)}")
  }

  test("lag mutual information: dependent > independent") {
    val rng = new Random(8)
    val indep = Array.fill(3000)(rng.nextDouble())
    val dep = new Array[Double](3000)
    var prev = 0.5
    for (i <- dep.indices) { prev = 0.9 * prev + 0.1 * rng.nextDouble(); dep(i) = prev }
    assert(mi(dep) > mi(indep) + 0.1)
    assert(mi(Array(1.0, 2.0)) == 0.0)
    assert(mi(Array.fill(100)(3.0)) == 0.0)
  }

  test("turning point rate: monotone 0, alternating 1, iid ~2/3") {
    assert(turningPointRate((1 to 50).map(_.toDouble).toArray) == 0.0)
    val alt = Array.tabulate(50)(i => if (i % 2 == 0) 0.0 else 1.0)
    assert(turningPointRate(alt) == 1.0)
    assert(math.abs(turningPointRate(gaussian(20000, 9)) - 2.0 / 3.0) < 0.02)
    assert(turningPointRate(Array(1.0, 2.0)) == 0.0)
  }

  test("histogram entropy: uniform > concentrated, constant = 0") {
    val rng = new Random(10)
    val unif = Array.fill(5000)(rng.nextDouble())
    val concentrated = Array.fill(5000)(rng.nextGaussian() * 0.01) :+ 5.0
    assert(histogramEntropy(unif) > histogramEntropy(concentrated))
    assert(histogramEntropy(Array.fill(10)(2.0)) == 0.0)
    assert(histogramEntropy(unif) <= math.log(8) + 1e-9)
  }
}

class EmdSpec extends AnyFunSuite {

  private def imfEntropy(xs: Array[Double], k: Int) =
    SeqStats.describe(xs)(if (k == 1) MetaFunctions.ImfEntropy1.slot else MetaFunctions.ImfEntropy2.slot)
  private def turningPointRate(xs: Array[Double]) = MetaFunctions.TurningPoint(xs)

  /** IMF1 of `xs` on a fresh workspace, and the residual it leaves. */
  private def sift(xs: Array[Double]): (Array[Double], Array[Double]) = {
    val imf = Emd.siftImf(xs, 0, xs.length, new SeqStats.Workspace).take(xs.length)
    (imf, xs.indices.map(i => xs(i) - imf(i)).toArray)
  }

  test("IMF extraction of a fast sine over a slow trend keeps the oscillation") {
    val n = 256
    val signal = Array.tabulate(n)(i => math.sin(2 * math.Pi * i / 8.0) + 0.01 * i)
    val (imf, residual) = sift(signal)
    // The IMF retains the oscillatory energy; the residual is smoother.
    val imfTurn = turningPointRate(imf)
    val resTurn = turningPointRate(residual)
    assert(imfTurn > resTurn, s"imf=$imfTurn res=$resTurn")
  }

  test("imf + residual reconstruct the signal") {
    val rng = new Random(1)
    val signal = Array.fill(128)(rng.nextDouble())
    val (imf, residual) = sift(signal)
    signal.indices.foreach(i => assert(math.abs(imf(i) + residual(i) - signal(i)) < 1e-9))
  }

  test("monotone signal has a ~zero IMF") {
    val signal = Array.tabulate(64)(_.toDouble)
    val (imf, _) = sift(signal)
    assert(imf.forall(v => math.abs(v) < 1e-9))
  }

  test("IMF entropy slots are finite and zero for short inputs") {
    val rng = new Random(2)
    val signal = Array.fill(100)(rng.nextDouble())
    val e1 = imfEntropy(signal, 1)
    val e2 = imfEntropy(signal, 2)
    assert(!e1.isNaN && !e1.isInfinite && e1 >= 0)
    assert(!e2.isNaN && !e2.isInfinite && e2 >= 0)
    assert(imfEntropy(Array(1.0, 2.0, 3.0), 1) == 0.0)
    assert(imfEntropy(Array(1.0, 2.0, 3.0), 2) == 0.0)
  }

  test("oscillation-rich vs smooth signals have different IMF entropy") {
    val fast = Array.tabulate(200)(i => math.sin(i * 2.1) + 0.1 * math.sin(i * 0.3))
    val slow = Array.tabulate(200)(i => math.sin(i * 0.05))
    assert(math.abs(imfEntropy(fast, 1) - imfEntropy(slow, 1)) > 1e-3)
  }

  private val finite: Gen[Double] = Gen.choose(-1e3, 1e3)
  private val cauchy: Gen[Double] = Gen.choose(-0.4999, 0.4999).map(u => math.tan(math.Pi * u))
  private val special: Gen[Double] =
    Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
  private val length: Gen[Int] = Gen.choose(0, 200)

  private def ofLength(n: Gen[Int], v: Gen[Double]): Gen[Array[Double]] =
    n.flatMap(k => Gen.containerOfN[Array, Double](k, v))

  private val signals: Gen[Array[Double]] = Gen.oneOf(
    ofLength(length, finite),
    ofLength(length, Gen.choose(-3, 3).map(_.toDouble)), // ties between neighbours
    for (n <- length; c <- finite) yield Array.fill(n)(c),
    for (n <- length; c <- finite; e <- ofLength(Gen.const(n), Gen.choose(-1e-13, 1e-13)))
      yield e.map(_ + c), // near-constant
    ofLength(length, cauchy),
    ofLength(length, Gen.frequency(9 -> finite, 1 -> special)),
    // A ramp with one kink: envelope segments longer than the weight table.
    for (n <- Gen.choose(130, 200); k <- Gen.choose(1, 5); bump <- Gen.choose(1.0, 50.0))
      yield Array.tabulate(n)(i => if (i == k) i + bump else i.toDouble),
  )

  test("property: sifting equals the verbatim oracle bit for bit") {
    def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToLongBits)
    val prop = Prop.forAll(signals) { xs =>
      val (imf, res) = sift(xs)
      val (wantImf, wantRes) = PerFunctionOracle.siftImf(xs, 4)
      bits(imf) == bits(wantImf) && bits(res) == bits(wantRes)
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(3000), prop)
    assert(result.passed, result.status.toString)
  }
}

class MetaFunctionsSpec extends AnyFunSuite {

  test("registry exposes the 12 sequence functions of Table I") {
    assert(MetaFunctions.all.length == 12)
    assert(MetaFunctions.all.map(_.name).distinct.length == 12)
  }

  test("slots follow the order of `all`") {
    assert(MetaFunctions.all.map(_.slot) == MetaFunctions.all.indices)
  }

  test("Table V groups pair lag functions together") {
    val groups = MetaFunctions.tableVGroups.toMap
    assert(groups("Autocorrelation").map(_.name) == IndexedSeq("acf1", "acf2"))
    assert(groups("Partial Autocorrelation").map(_.name) == IndexedSeq("pacf1", "pacf2"))
    assert(groups("Entropy of IMFs").map(_.name) == IndexedSeq("imf1", "imf2"))
    assert(groups.size == 9)
  }

  test("every function maps an arbitrary sequence to a finite value") {
    val rng = new Random(3)
    val xs = Array.fill(60)(rng.nextDouble() * 10 - 5)
    MetaFunctions.all.foreach { f =>
      val v = f(xs)
      assert(!v.isNaN && !v.isInfinite, f.name)
    }
  }

  test("every function guards tiny inputs") {
    MetaFunctions.all.foreach { f =>
      val v = f(Array(1.0))
      assert(!v.isNaN && !v.isInfinite, f.name)
    }
  }
}

/** The shared kernel against the per-function oracle, bit for bit. */
class SeqStatsKernelSpec extends AnyFunSuite {

  private val finite: Gen[Double] = Gen.choose(-1e3, 1e3)
  private val cauchy: Gen[Double] = Gen.choose(-0.4999, 0.4999).map(u => math.tan(math.Pi * u))
  private val special: Gen[Double] =
    Gen.oneOf(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)

  private def ofLength(n: Gen[Int], v: Gen[Double]): Gen[Array[Double]] =
    n.flatMap(k => Gen.containerOfN[Array, Double](k, v))

  private val aroundW: Gen[Int] = Gen.choose(40, 60)

  private val sequences: Gen[Array[Double]] = Gen.oneOf(
    ofLength(aroundW, finite),
    ofLength(aroundW, Gen.oneOf(0.0, 1.0)), // label, prediction and error sources
    for (n <- aroundW; c <- finite) yield Array.fill(n)(c),
    for (n <- aroundW; c <- finite; e <- ofLength(Gen.const(n), Gen.choose(-1e-13, 1e-13)))
      yield e.map(_ + c), // near-constant
    ofLength(Gen.choose(0, 8), finite),
    ofLength(aroundW, cauchy),
    ofLength(aroundW, Gen.frequency(9 -> finite, 1 -> special)),
  )

  private def bits(v: Double): Long = java.lang.Double.doubleToLongBits(v)

  test("property: every slot equals the per-function oracle bit for bit") {
    val prop = Prop.forAll(sequences, Gen.choose(1, SeqStats.AllSlots)) { (xs, mask) =>
      val full = SeqStats.describe(xs)
      val masked = SeqStats.describe(xs, mask)
      MetaFunctions.all.forall { fn =>
        val want = bits(PerFunctionOracle.all(fn.slot)(xs))
        bits(full(fn.slot)) == want && bits(fn(xs)) == want &&
          ((mask & (1 << fn.slot)) == 0 || bits(masked(fn.slot)) == want)
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(result.passed, result.status.toString)
  }

  test("property: describe on one reused workspace equals a fresh call on every window") {
    // Windows of 0 to 200 values, at random offsets in a longer array, in
    // random order: each call must ignore what earlier, longer or shorter
    // windows left in the workspace.
    val windows = Gen.listOfN(12, for {
      n <- Gen.choose(0, 200)
      pad <- Gen.choose(0, 5)
      v <- Gen.oneOf(finite, cauchy, Gen.frequency(9 -> finite, 1 -> special), Gen.oneOf(0.0, 1.0))
      xs <- ofLength(Gen.const(n + 2 * pad), v)
      mask <- Gen.choose(1, SeqStats.AllSlots)
    } yield (xs, pad, n, mask))
    val prop = Prop.forAll(windows) { ws =>
      val reused = new SeqStats.Workspace
      ws.forall { case (xs, pad, n, mask) =>
        val got = SeqStats.describe(xs, pad, n, mask, reused).clone()
        got.map(bits).toSeq == SeqStats.describe(xs.slice(pad, pad + n), mask).map(bits).toSeq
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
  }
}

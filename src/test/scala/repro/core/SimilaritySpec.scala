package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.classifier.HoeffdingTree

class NormalizerSpec extends AnyFunSuite {

  test("scales observed range to [0,1]") {
    val n = new Normalizer(2)
    n.update(Array(0.0, -10.0))
    n.update(Array(10.0, 10.0))
    val s = n.scale(Array(5.0, 0.0))
    assert(s(0) == 0.5 && s(1) == 0.5)
    assert(n.scale(Array(0.0, -10.0)).toSeq == Seq(0.0, 0.0))
    assert(n.scale(Array(10.0, 10.0)).toSeq == Seq(1.0, 1.0))
  }

  test("clips values outside the observed range") {
    val n = new Normalizer(1)
    n.update(Array(0.0)); n.update(Array(1.0))
    assert(n.scale(Array(5.0))(0) == 1.0)
    assert(n.scale(Array(-5.0))(0) == 0.0)
  }

  test("unseen dimensions scale to 0.5 with unit span") {
    val n = new Normalizer(1)
    assert(n.scale(Array(42.0))(0) == 0.5)
    assert(n.span(0) == 1.0)
  }

  test("span is the observed max-min") {
    val n = new Normalizer(1)
    n.update(Array(2.0)); n.update(Array(6.0))
    assert(n.span(0) == 4.0)
  }
}

class SimilaritySpec extends AnyFunSuite {

  private def ones(n: Int) = Array.fill(n)(1.0)

  test("identical vectors give similarity 1") {
    val a = Array(0.1, 0.5, 0.9)
    assert(Similarity.sim(a, a.clone(), ones(3)) == 1.0)
  }

  test("similarity decreases monotonically with deviation") {
    val a = Array.fill(32)(0.5)
    val sims = Seq(0.0, 0.1, 0.2, 0.4, 0.8).map { d =>
      val b = a.clone(); b(0) = 0.5 + d
      Similarity.sim(a, b, ones(32))
    }
    assert(sims == sims.sorted.reverse)
    assert(sims.head == 1.0)
  }

  test("similarity is bounded in (0, 1]") {
    val a = Array.fill(16)(0.0)
    val b = Array.fill(16)(1.0)
    val s = Similarity.sim(a, b, Array.fill(16)(50.0))
    assert(s > 0.0 && s < 0.05)
  }

  test("weights amplify the weighted dimension's influence") {
    val a = Array(0.5, 0.5)
    val b = Array(0.9, 0.5)
    val wLow  = Array(0.1, 0.1)
    val wHigh = Array(5.0, 0.1)
    assert(Similarity.sim(a, b, wHigh) < Similarity.sim(a, b, wLow))
  }

  test("univariate (ER) similarity is monotone in |delta|") {
    val s0 = Similarity.sim(Array(0.5), Array(0.5), ones(1))
    val s1 = Similarity.sim(Array(0.5), Array(0.6), ones(1))
    val s2 = Similarity.sim(Array(0.5), Array(1.0), ones(1))
    assert(s0 == 1.0 && s0 > s1 && s1 > s2)
  }

  test("top-k aggregation: sparse large deviations dominate dense tiny ones") {
    val n = 64
    val a = Array.fill(n)(0.5)
    val sparse = a.clone(); (0 until 4).foreach(i => sparse(i) = 0.5 + 0.4)
    val dense = a.map(_ + 0.02)
    val w = ones(n)
    assert(Similarity.sim(a, sparse, w) < Similarity.sim(a, dense, w))
  }

  test("length mismatch is rejected") {
    intercept[IllegalArgumentException](Similarity.sim(Array(1.0), Array(1.0, 2.0), ones(2)))
  }

  test("property: top-k sim equals the sort-based oracle bit for bit for n = 1 to 900") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Few distinct values make ties; ±0.0, NaN and ±∞ reach the squared
    // deviations as 0, NaN and ∞ (∞ · 0 and ∞ − ∞ give NaN).
    val value: Gen[Double] = Gen.frequency(
      6 -> Gen.choose(-2.0, 2.0),
      3 -> Gen.oneOf(0.0, 0.25, 0.5, 1.0),
      1 -> Gen.oneOf(0.0, -0.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, Double.MinPositiveValue),
    )
    val vectors = for {
      n <- Gen.frequency(3 -> Gen.choose(1, 40), 2 -> Gen.choose(41, 900))
      a <- Gen.containerOfN[Array, Double](n, value)
      b <- Gen.containerOfN[Array, Double](n, value)
      w <- Gen.containerOfN[Array, Double](n, Gen.frequency(4 -> Gen.choose(0.0, 5.0), 1 -> value))
    } yield (a, b, w)
    val prop = Prop.forAll(vectors) { case (a, b, w) =>
      java.lang.Double.doubleToLongBits(Similarity.sim(a, b, w)) ==
        java.lang.Double.doubleToLongBits(SimilarityOracle.sim(a, b, w))
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(result.passed, result.status.toString)
    // Every n in 1 to 900 once, on ties and specials alike.
    val rng = new scala.util.Random(9)
    def draw(): Double = rng.nextInt(8) match {
      case 0 => Double.NaN
      case 1 => Double.PositiveInfinity
      case 2 => -0.0
      case 3 => 0.0
      case 4 => 0.5
      case _ => rng.nextGaussian()
    }
    (1 to 900).foreach { n =>
      val (a, b, w) = (Array.fill(n)(draw()), Array.fill(n)(draw()), Array.fill(n)(math.abs(draw())))
      val clean = Array.fill(n)(rng.nextInt(3).toDouble)
      for ((x, y, v) <- Seq((a, b, w), (clean, b.map(v => if (v.isNaN || v.isInfinite) 1.0 else v), ones(n))))
        assert(java.lang.Double.doubleToLongBits(Similarity.sim(x, y, v)) ==
          java.lang.Double.doubleToLongBits(SimilarityOracle.sim(x, y, v)), s"n = $n")
    }
  }
}

class DynamicWeightsSpec extends AnyFunSuite {

  private def concept(id: Int, dim: Int, rows: Seq[Array[Double]]): ConceptState = {
    val cs = new ConceptState(id, dim, new HoeffdingTree(2, 2))
    rows.foreach(cs.stats.add)
    cs
  }

  test("weights are positive and finite") {
    val c = concept(0, 3, Seq(Array(0.1, 0.5, 0.9), Array(0.2, 0.5, 0.8), Array(0.15, 0.5, 0.85)))
    val n = new Normalizer(3)
    n.update(Array(0.0, 0.0, 0.0)); n.update(Array(1.0, 1.0, 1.0))
    val w = DynamicWeights.compute(c, IndexedSeq(c), n)
    assert(w.forall(v => v > 0 && !v.isNaN && !v.isInfinite))
  }

  test("w_sigma: low-variance dims get higher weight") {
    val rows = (0 until 20).map(i => Array(0.5 + (i % 2) * 0.4, 0.5 + (i % 2) * 0.01))
    val c = concept(0, 2, rows)
    val n = new Normalizer(2)
    n.update(Array(0.0, 0.0)); n.update(Array(1.0, 1.0))
    val w = DynamicWeights.compute(c, IndexedSeq(c), n)
    assert(w(1) > w(0), s"expected stable dim to outweigh noisy dim: ${w.toSeq}")
  }

  test("v_s: a dim that separates stored concepts gets boosted") {
    // dim0 differs strongly between concepts, dim1 identical.
    def rows(center: Double) = (0 until 15).map(i => Array(center + (i % 3) * 0.01, 0.5 + (i % 3) * 0.01))
    val c0 = concept(0, 2, rows(0.1))
    val c1 = concept(1, 2, rows(0.9))
    val n = new Normalizer(2)
    n.update(Array(0.0, 0.0)); n.update(Array(1.0, 1.0))
    val w = DynamicWeights.compute(c0, IndexedSeq(c0, c1), n)
    assert(w(0) > w(1) * 3, s"discriminative dim should dominate: ${w.toSeq}")
  }

  test("v_sc: dims where a stored classifier behaves differently abroad get boosted") {
    def rows(center: Double, jitter: Double) =
      (0 until 15).map(i => Array(center + (i % 3) * jitter, 0.5 + (i % 3) * jitter))
    val c0 = concept(0, 2, rows(0.5, 0.01))
    // SC observations: dim0 moves a lot on foreign data, dim1 stays.
    (0 until 10).foreach(i => c0.scStats.add(Array(0.5 + (i % 5) * 0.2, 0.5 + (i % 3) * 0.01)))
    val c1 = concept(1, 2, rows(0.5, 0.01))
    val n = new Normalizer(2)
    n.update(Array(0.0, 0.0)); n.update(Array(1.0, 1.0))
    val w = DynamicWeights.compute(c0, IndexedSeq(c0, c1), n)
    assert(w(0) > w(1), s"intra-classifier-variable dim should outweigh: ${w.toSeq}")
  }

  test("single stored concept with no SC stats falls back to w_d = 1") {
    val c = concept(0, 2, (0 until 10).map(i => Array(0.4 + (i % 2) * 0.2, 0.5)))
    val n = new Normalizer(2)
    n.update(Array(0.0, 0.0)); n.update(Array(1.0, 1.0))
    val w = DynamicWeights.compute(c, IndexedSeq(c), n)
    assert(w.forall(_ > 0))
  }
}

/** `DynamicWeights.compute` against the verbatim collection-based oracle. */
class DynamicWeightsOracleSpec extends AnyFunSuite {
  import org.scalacheck.{Gen, Prop, Test => SCTest}
  import scala.util.Random

  /** A repository of `size` concepts over `dim` dims drawn from `seed`:
    * stats and scStats counts from 0 to 5 (so some stay below 2), some dims
    * constant across all rows (zero σ), and a partly trained normalizer.
    */
  private def scenario(seed: Long, size: Int): (ConceptState, IndexedSeq[ConceptState], Normalizer) = {
    val rng = new Random(seed)
    val dim = 1 + rng.nextInt(6)
    val constant = Array.fill(dim)(rng.nextInt(3) == 0)
    def row(): Array[Double] =
      Array.tabulate(dim)(i => if (constant(i)) 0.25 * i else rng.nextGaussian() * (1 + rng.nextInt(4)))
    def concept(id: Int): ConceptState = {
      val c = new ConceptState(id, dim, new HoeffdingTree(2, 2))
      (0 until rng.nextInt(6)).foreach(_ => c.stats.add(row()))
      (0 until rng.nextInt(6)).foreach(_ => c.scStats.add(row()))
      c
    }
    val repo = (0 until size).map(concept)
    val norm = new Normalizer(dim)
    (0 until rng.nextInt(4)).foreach(_ => norm.update(row()))
    val active = if (repo.nonEmpty && rng.nextBoolean()) repo(rng.nextInt(size)) else concept(size)
    (active, repo, norm)
  }

  test("property: compute equals the oracle bit for bit on repositories of 0 to 13 concepts") {
    val prop = Prop.forAll(Gen.choose(0L, Long.MaxValue), Gen.oneOf(0, 1, 2, 8, 13)) { (seed, size) =>
      val (active, repo, norm) = scenario(seed, size)
      DynamicWeights.compute(active, repo, norm).toSeq.map(java.lang.Double.doubleToLongBits) ==
        WeightsOracle.compute(active, repo, norm).toSeq.map(java.lang.Double.doubleToLongBits)
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(1000), prop)
    assert(result.passed, result.status.toString)
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToLongBits)

  test("property: one instance's incremental compute equals the oracle after every change to its inputs") {
    // Random interleavings of everything compute reads: normalizer updates,
    // stats and scStats adds, decays, repository adds and removes, and
    // active swaps (to a stored concept or to one outside the repository).
    val prop = Prop.forAll(Gen.choose(0L, Long.MaxValue)) { seed =>
      val (first, initial, norm) = scenario(seed, 3)
      val rng = new Random(seed ^ 0x5DEECE66DL)
      val dim = first.dim
      def row(): Array[Double] = Array.tabulate(dim)(_ =>
        if (rng.nextInt(4) == 0) rng.nextInt(3).toDouble else rng.nextGaussian() * (1 + rng.nextInt(3)))
      val repo = scala.collection.mutable.ArrayBuffer.from(initial)
      var active = first
      var nextId = 100
      val weights = new DynamicWeights(norm)
      val pool = () => (repo :+ active).toIndexedSeq
      (0 until 60).forall { _ =>
        rng.nextInt(8) match {
          case 0 => norm.update(row())
          case 1 => pool()(rng.nextInt(pool().length)).stats.add(row())
          case 2 => pool()(rng.nextInt(pool().length)).scStats.add(row())
          case 3 =>
            val dims = (0 until dim).filter(_ => rng.nextBoolean())
            pool()(rng.nextInt(pool().length)).stats.decayDims(dims, 0.3)
          case 4 =>
            val c = new ConceptState(nextId, dim, new HoeffdingTree(2, 2))
            nextId += 1
            (0 until rng.nextInt(4)).foreach(_ => c.stats.add(row()))
            repo.insert(rng.nextInt(repo.length + 1), c)
          case 5 => if (repo.nonEmpty) repo.remove(rng.nextInt(repo.length))
          case 6 => if (repo.nonEmpty) active = repo(rng.nextInt(repo.length))
          case _ =>
            active = new ConceptState(nextId, dim, new HoeffdingTree(2, 2))
            nextId += 1
            (0 until rng.nextInt(4)).foreach(_ => active.stats.add(row()))
        }
        // Checks skip some steps, so caches also see several changes at once.
        val scaledOk = rng.nextBoolean() || pool().forall { c =>
          bits(c.stats.scaledMean(norm)) == bits(norm.scale(Array.tabulate(dim)(c.stats.mean)))
        }
        scaledOk && (rng.nextBoolean() ||
          bits(weights.compute(active, repo)) == bits(WeightsOracle.compute(active, repo.toIndexedSeq, norm)))
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
  }
}

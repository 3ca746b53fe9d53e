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
}

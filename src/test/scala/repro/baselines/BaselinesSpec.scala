package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.sparkstream.StreamingDrift.serialize
import repro.stream.Datasets

class BaselinesSpec extends AnyFunSuite {

  private lazy val stagger = Datasets.stagger.build(1)

  test("HTCD resets its model on drift: model ids increase over STAGGER") {
    val h = new Htcd(stagger.numFeatures, stagger.numClasses)
    val ids = stagger.obs.map(o => h.step(o.x, o.y)._2)
    assert(ids.distinct.length >= 4, s"models=${ids.distinct.length}")
    assert(ids == ids.sorted, "HTCD model ids must be monotone (no reuse)")
    assert(h.driftCount == ids.distinct.length - 1)
  }

  test("HTCD achieves reasonable prequential accuracy on STAGGER") {
    val h = new Htcd(stagger.numFeatures, stagger.numClasses)
    val correct = stagger.obs.count(o => h.step(o.x, o.y)._1 == o.y)
    assert(correct.toDouble / stagger.length > 0.75)
  }

  test("RCD detects drifts and can reuse stored models") {
    val r = new Rcd(stagger.numFeatures, stagger.numClasses)
    val ids = stagger.obs.map(o => r.step(o.x, o.y)._2)
    assert(r.driftCount >= 1, "EDDM should fire on STAGGER concept changes")
    assert(ids.distinct.nonEmpty)
  }

  test("RCD on a p(X)-drift stream uses the KS test path") {
    val s = Datasets.rtreeU.build(1)
    val r = new Rcd(s.numFeatures, s.numClasses)
    val ids = s.obs.map(o => r.step(o.x, o.y)._2)
    assert(ids.distinct.length >= 1)
  }

  test("DWM keeps a single evolving representation (model id 0)") {
    val d = new Dwm(stagger.numFeatures, stagger.numClasses)
    val ids = stagger.obs.take(1500).map(o => d.step(o.x, o.y)._2)
    assert(ids.forall(_ == 0))
    assert(d.numExperts <= 10)
  }

  test("property: DWM holds between 1 and 10 experts after every step on random label streams") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Random labels make the ensemble wrong often, so experts are pruned,
    // added and evicted at the cap. The invariant behind DWM's update: the
    // best expert's normalized weight is exactly 1.0 ≥ θ, so one survives.
    val cases = for {
      k <- Gen.choose(2, 4)
      d <- Gen.choose(1, 4)
      n <- Gen.choose(50, 600)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (k, d, n, seed)
    var atCap, pruned = 0
    val prop = Prop.forAll(cases) { case (k, d, n, seed) =>
      val rng = new scala.util.Random(seed)
      val dwm = new Dwm(d, k)
      (0 until n).forall { _ =>
        val before = dwm.numExperts
        dwm.step(Array.fill(d)(rng.nextDouble()), rng.nextInt(k))
        if (dwm.numExperts == 10) atCap += 1
        if (dwm.numExperts < before) pruned += 1
        dwm.numExperts >= 1 && dwm.numExperts <= 10
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(result.passed, result.status.toString)
    assert(atCap >= 1000 && pruned >= 10, s"steps at the cap $atCap, steps that pruned $pruned")
  }

  test("DWM accuracy beats majority guessing on STAGGER") {
    val d = new Dwm(stagger.numFeatures, stagger.numClasses)
    val correct = stagger.obs.count(o => d.step(o.x, o.y)._1 == o.y)
    val majority = stagger.obs.map(_.y).groupBy(identity).values.map(_.length).max
    assert(correct > majority, s"acc=${correct.toDouble / stagger.length}")
  }

  test("ARF keeps a single evolving representation and adapts") {
    val a = new Arf(stagger.numFeatures, stagger.numClasses, seed = 1)
    val results = stagger.obs.map(o => a.step(o.x, o.y))
    assert(results.forall(_._2 == 0))
    val correct = results.zip(stagger.obs).count { case ((p, _), o) => p == o.y }
    assert(correct.toDouble / stagger.length > 0.7, s"acc=${correct.toDouble / stagger.length}")
  }

  test("ARF per-tree ADWIN resets fire under drift") {
    val a = new Arf(stagger.numFeatures, stagger.numClasses, seed = 1)
    stagger.obs.foreach(o => a.step(o.x, o.y))
    assert(a.driftCount >= 1)
  }

  test("all baselines are serializable") {
    val systems: Seq[repro.eval.StreamSystem] = Seq(
      new Htcd(3, 2), new Rcd(3, 2), new Dwm(3, 2), new Arf(3, 2))
    systems.foreach { s =>
      stagger.obs.take(300).foreach(o => s.step(o.x, o.y))
      assert(serialize(s).nonEmpty, s.name)
    }
  }
}

package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class GeneratorsSpec extends AnyFunSuite {

  private def draw(g: ConceptGenerator, n: Int, seed: Long = 7): IndexedSeq[Observation] = {
    val rng = new Random(seed)
    g.reset()
    (0 until n).map(t => g.next(rng, t))
  }

  test("STAGGER emits 3 features with values in {0,1,2}") {
    val obs = draw(StaggerConcept(0), 200)
    assert(obs.forall(_.x.length == 3))
    assert(obs.forall(_.x.forall(v => v == 0.0 || v == 1.0 || v == 2.0)))
  }

  test("STAGGER rule 0 is small AND red") {
    val obs = draw(StaggerConcept(0), 500)
    obs.foreach(o => assert(o.y == (if (o.x(0) == 0 && o.x(1) == 0) 1 else 0)))
  }

  test("STAGGER rule 1 is green OR circle") {
    val obs = draw(StaggerConcept(1), 500)
    obs.foreach(o => assert(o.y == (if (o.x(1) == 1 || o.x(2) == 0) 1 else 0)))
  }

  test("STAGGER rule 2 is medium OR large") {
    val obs = draw(StaggerConcept(2), 500)
    obs.foreach(o => assert(o.y == (if (o.x(0) >= 1) 1 else 0)))
  }

  test("STAGGER rejects invalid rule index") {
    intercept[IllegalArgumentException](StaggerConcept(3))
  }

  test("RandomTree labels are deterministic in the feature vector") {
    val g = new RandomTreeConcept(5, 10)
    val x = Array.fill(10)(0.4)
    assert(g.label(x) == g.label(x.clone()))
  }

  test("RandomTree with same seed produces identical streams") {
    val a = draw(new RandomTreeConcept(11, 10), 100)
    val b = draw(new RandomTreeConcept(11, 10), 100)
    assert(a.map(_.y) == b.map(_.y))
    assert(a.zip(b).forall { case (o1, o2) => o1.x.sameElements(o2.x) })
  }

  test("RandomTree with different seeds produces different labelling") {
    val x = Array.fill(10)(0.5)
    val labels = (0 until 50).map(s => new RandomTreeConcept(s, 10).label(x))
    assert(labels.distinct.length > 1)
  }

  test("RandomTree features are uniform in [0,1]") {
    val obs = draw(new RandomTreeConcept(3, 5), 1000)
    assert(obs.forall(_.x.forall(v => v >= 0 && v <= 1)))
    val m = obs.map(_.x(0)).sum / 1000
    assert(math.abs(m - 0.5) < 0.06)
  }

  test("RBF emits both classes and d-dimensional features") {
    val obs = draw(new RbfConcept(2, 10), 1000)
    assert(obs.forall(_.x.length == 10))
    assert(obs.map(_.y).distinct.sorted == Seq(0, 1))
  }

  test("RBF observations cluster near centroids (bounded spread)") {
    val obs = draw(new RbfConcept(2, 4), 2000)
    // values = centre(U(0,1)) + gaussian(sd<=0.1): very unlikely outside [-0.6, 1.6]
    assert(obs.forall(_.x.forall(v => v > -0.6 && v < 1.6)))
  }

  test("Hyperplane classes are roughly balanced") {
    val h = new HyperplaneConcept(5, 10)
    val rng = new Random(7)
    val p1 = (0 until 3000).count(_ => h.label(Array.fill(10)(rng.nextDouble())) == 1).toDouble / 3000
    assert(p1 > 0.15 && p1 < 0.85, s"p1=$p1")
  }

  test("GaussianMixture shares p(X) across contexts but not labels") {
    val a = new GaussianMixtureConcept(100, 1, 5, 2)
    val b = new GaussianMixtureConcept(100, 2, 5, 2)
    val oa = draw(a, 2000, seed = 3)
    val ob = draw(b, 2000, seed = 3)
    // Same dataset seed + same rng seed => identical feature draws.
    assert(oa.zip(ob).forall { case (x, yv) => x.x.sameElements(yv.x) })
    // Different context seeds => label maps differ for at least some clusters.
    assert(oa.map(_.y) != ob.map(_.y))
  }

  test("GaussianMixture emits all classes") {
    val obs = draw(new GaussianMixtureConcept(100, 1, 5, 2), 500)
    assert(obs.map(_.y).distinct.sorted == Seq(0, 1))
  }
}

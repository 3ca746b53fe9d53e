package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.meta.MetaFunctions.{Acf1, StdDev}

class ModulationSpec extends AnyFunSuite {

  private val labeler = new RandomTreeConcept(99, 6, maxDepth = 4)

  private def draw(g: ConceptGenerator, n: Int, seed: Long = 5): IndexedSeq[Observation] = {
    val rng = new Random(seed)
    g.reset()
    (0 until n).map(t => g.next(rng, t))
  }

  test("ModSpec tags compose D/A/F") {
    assert(ModSpec.DAF.tag == "DAF")
    assert(ModSpec.D.tag == "D")
    assert(ModSpec.AF.tag == "AF")
  }

  test("labels are the shared labeler applied to the modulated features") {
    val g = new ModulatedConcept(labeler, 6, 1, ModSpec.D)
    draw(g, 300).foreach(o => assert(o.y == labeler.label(o.x)))
  }

  test("distribution modulation changes the feature mean between concepts") {
    val a = draw(new ModulatedConcept(labeler, 6, 1, ModSpec.D), 1500)
    val b = draw(new ModulatedConcept(labeler, 6, 2, ModSpec.D), 1500)
    val meansA = (0 until 6).map(j => a.map(_.x(j)).sum / a.length)
    val meansB = (0 until 6).map(j => b.map(_.x(j)).sum / b.length)
    val maxDiff = meansA.zip(meansB).map { case (x, yv) => math.abs(x - yv) }.max
    assert(maxDiff > 0.05, s"expected a mean shift, got $maxDiff")
  }

  test("autocorrelation modulation induces lag-1 autocorrelation") {
    val plain = draw(new ModulatedConcept(labeler, 6, 1, ModSpec(false, false, false)), 1000)
    val auto  = draw(new ModulatedConcept(labeler, 6, 1, ModSpec(false, true, false)), 1000)
    val acfPlain = Acf1(plain.map(_.x(0)).toArray)
    val acfAuto  = Acf1(auto.map(_.x(0)).toArray)
    assert(math.abs(acfPlain) < 0.12, s"iid draws should have ~0 acf, got $acfPlain")
    assert(acfAuto > 0.25, s"AR(1)-filtered draws should correlate, got $acfAuto")
  }

  test("frequency modulation adds periodic structure") {
    val g = new ModulatedConcept(labeler, 6, 3, ModSpec(false, false, true))
    val xs = draw(g, 600).map(_.x(0)).toArray
    // The sine component makes the sequence differ from iid: test variance
    // exceeds the pure-uniform variance bound noticeably for some feature.
    val gPlain = new ModulatedConcept(labeler, 6, 3, ModSpec(false, false, false))
    val plain = draw(gPlain, 600).map(_.x(0)).toArray
    assert(StdDev(xs) > StdDev(plain))
  }

  test("reset() makes recurrences reproduce the same AR trajectory") {
    val g = new ModulatedConcept(labeler, 6, 1, ModSpec.DA)
    val first = draw(g, 100, seed = 11).map(_.x(0))
    val second = draw(g, 100, seed = 11).map(_.x(0)) // draw() calls reset()
    assert(first == second)
  }

  test("numClasses mirrors the labeler") {
    assert(new ModulatedConcept(labeler, 6, 1, ModSpec.D).numClasses == labeler.numClasses)
  }

  test("label noise parameter flips labels") {
    val clean = new ModulatedConcept(labeler, 6, 1, ModSpec.D, labelNoise = 0.0)
    val noisy = new ModulatedConcept(labeler, 6, 1, ModSpec.D, labelNoise = 0.4)
    val a = draw(clean, 800, seed = 13)
    val b = draw(noisy, 800, seed = 13)
    assert(a.zip(b).count { case (x, yv) => x.y != yv.y } > 150)
  }
}

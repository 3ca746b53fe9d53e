package repro.eval

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.stream.Datasets

class RunnerSpec extends AnyFunSuite {

  test("Runner produces a complete outcome for HTCD on STAGGER") {
    val stream = Datasets.stagger.build(1)
    val out = Runner.run(Systems.create("HTCD", stream.numFeatures, stream.numClasses, 1),
      stream, 1)
    assert(out.dataset == "STAGGER" && out.system == "HTCD")
    assert(out.kappa > 0.3 && out.kappa <= 1.0)
    assert(out.cF1 > 0.0 && out.cF1 <= 1.0)
    assert(out.discrimination.isNaN) // HTCD is not probeable
    assert(out.runtimeMs >= 0 && out.numModels >= 2)
  }

  test("Runner records discrimination for probeable systems") {
    val stream = Datasets.stagger.build(1)
    val out = Runner.run(Systems.create("ER", stream.numFeatures, stream.numClasses, 1),
      stream, 1)
    assert(!out.discrimination.isNaN, "ER should produce discrimination probes")
  }

  test("runtime times only the step calls, not the discrimination probes") {
    val stream = Datasets.stagger.build(1)
    val sleepMs = 5
    var probes = 0
    val slowProbe = new StreamSystem with Probeable {
      def name = "slow-probe"
      def step(x: Array[Double], y: Int): (Int, Int) = (0, 0)
      def probe(): Option[ProbeResult] = { probes += 1; Thread.sleep(sleepMs); None }
    }
    val out = Runner.run(slowProbe, stream, 1)
    assert(probes >= 20, s"probes=$probes")
    assert(out.runtimeMs < probes * sleepMs / 2, s"runtimeMs=${out.runtimeMs} with $probes probes")
  }

  test("Systems factory builds every named system") {
    for (name <- Seq("FiCSUM", "S-MI", "U-MI", "ER", "HTCD", "RCD", "DWM", "ARF"))
      assert(Systems.create(name, 4, 2, 1).isInstanceOf[StreamSystem], name)
    for ((label, _) <- repro.meta.MetaFunctions.tableVGroups)
      assert(Systems.create(s"fn:$label", 4, 2, 1).name == s"fn:$label")
    assert(Systems.create("fn:Shapley Value", 4, 2, 1).name == "fn:Shapley Value")
    intercept[NoSuchElementException](Systems.create("nope", 4, 2, 1))
  }
}

/** Outputs-unchanged gate for refactors: κ, C-F1 and discrimination (by bit
  * pattern) and the model count of fixed cells. The first four rows were
  * recorded before the shared meta-information kernel replaced the
  * per-function closures; the next seven (the other variants and the
  * baselines) before the FiCSUM drift path and `Systems.create` were
  * simplified. The AQSex rows (d=25: naive-Bayes leaves, many stored
  * concepts, three-sub-window model selection) were recorded before each
  * fingerprint computation was made to run once per step. The RTREE-U
  * baseline rows (continuous d=10 features: ARF's subspace drops features
  * and RCD's KS test sees continuous data) were recorded before the
  * baselines' settings became constants. The RTREE-U FiCSUM and U-MI rows
  * and the QG ER row were recorded before a concept's lifecycle moved into
  * `ConceptState`, so that more cells reach the branches that moved: RTREE-U
  * U-MI and QG ER each withhold one split re-opening (a "suspicious" split),
  * which before them only the STAGGER fn:Entropy of IMFs and fn:Shapley Value
  * rows did, and RTREE-U FiCSUM re-activates stored concepts and has
  * re-openings refused by the per-activation cap.
  */
class GoldenOutcomeSpec extends AnyFunSuite {
  import java.lang.Double.doubleToLongBits

  private val golden = Seq(
    ("FiCSUM", 0x3fe6b09ed59d7016L, 0x3fde5c900e3a9645L, 0x4049e854cf9074c0L, 9),
    ("U-MI", 0x3fda8b0205622dfaL, 0x3fdfb1fb1fb1fb1fL, 0x7ff8000000000000L, 4),
    ("ER", 0x3fe37004312cd739L, 0x3fe36d03bcd63ce2L, 0x3ff1e9fe16657657L, 5),
    ("fn:Entropy of IMFs", 0x3fdd5b941a0e60b6L, 0x3fde5c920e797248L, 0x3fd4b66dfa9e606bL, 4),
    ("S-MI", 0x3fe6a2c0fbade1dcL, 0x3fe22833a0613633L, 0x40332168adda35d9L, 8),
    ("HTCD", 0x3fecf942323f712cL, 0x3fe2c6160d4b4ec5L, 0x7ff8000000000000L, 9),
    ("RCD", 0x3fea73eb52bf88d1L, 0x3fe25534ff51043bL, 0x7ff8000000000000L, 8),
    ("DWM", 0x3fed213a0caedae8L, 0x3fe0000000000000L, 0x7ff8000000000000L, 1),
    ("ARF", 0x3fedc4ccc057f67bL, 0x3fe0000000000000L, 0x7ff8000000000000L, 1),
    ("fn:Shapley Value", 0x3fd86934d7aad166L, 0x3fdd66628460ce33L, 0x404076f394ff81a9L, 4),
    ("fn:Mean", 0x3fdc7f0848aa3a76L, 0x3fe1dcbc32aaa78fL, 0x401118cfcb9e7acdL, 2),
  ).map(("STAGGER", _)) ++ Seq(
    ("FiCSUM", 0x3fdd1dd75abc2ae3L, 0x3fd692ea317caed8L, 0x402214b49aa87bf2L, 7),
    ("S-MI", 0x3fe0abd98726f8daL, 0x3fdea0c3fe9be844L, 0x402c641e9b0afebeL, 5),
    ("U-MI", 0x3fd83df363bd92bdL, 0x3fd244fe2f34a709L, 0x7ff8000000000000L, 2),
  ).map(("AQSex", _)) ++ Seq(
    ("HTCD", 0x3fea4229b29bd9a2L, 0x3fdabf5d37eb6e61L, 0x7ff8000000000000L, 8),
    ("RCD", 0x3fecd9d47d8b6dd5L, 0x3fd2492492492491L, 0x7ff8000000000000L, 1),
    ("DWM", 0x3feb794e1f52f5e9L, 0x3fd2492492492491L, 0x7ff8000000000000L, 1),
    ("ARF", 0x3fec873f195636c2L, 0x3fd2492492492491L, 0x7ff8000000000000L, 1),
    ("FiCSUM", 0x3fe978f4d4765913L, 0x3fe9ac80430d625dL, 0x402dfb53d856f4f1L, 18),
    ("U-MI", 0x3fe944a93e985743L, 0x3fe4b33112890093L, 0x403c20a4c4310630L, 13),
  ).map(("RTREE-U", _)) ++ Seq(
    ("ER", 0x3fdfc471d3aed7f4L, 0x3fd03560b24ae972L, 0x403446a9434d8236L, 3),
  ).map(("QG", _))

  private lazy val streams = Map("STAGGER" -> Datasets.stagger.build(1), "AQSex" -> Datasets.aqSex.build(1),
    "RTREE-U" -> Datasets.rtreeU.build(1), "QG" -> Datasets.qg.build(1))

  for ((dataset, (system, kappa, cF1, disc, models)) <- golden)
    test(s"$dataset seed 1 $system outcome is bit-identical to the recorded one") {
      val stream = streams(dataset)
      val out = Runner.run(Systems.create(system, stream.numFeatures, stream.numClasses, 1), stream, 1)
      assert((doubleToLongBits(out.kappa), doubleToLongBits(out.cF1),
        doubleToLongBits(out.discrimination), out.numModels) == ((kappa, cF1, disc, models)),
        s"kappa=${out.kappa} cF1=${out.cF1} disc=${out.discrimination} models=${out.numModels}")
    }
}

class EvalGridSpec extends SparkSpec {

  test("grid cells run as Spark tasks and aggregate") {
    val cells = Seq(
      Cell("STAGGER", "HTCD", 1), Cell("STAGGER", "HTCD", 2),
      Cell("STAGGER", "ER", 1), Cell("STAGGER", "ER", 2))
    val outcomes = EvalGrid.run(spark, cells)
    assert(outcomes.length == 4)
    assert(outcomes.map(_.system).toSet == Set("HTCD", "ER"))
    val agg = EvalGrid.aggregate(outcomes, _.kappa)
    assert(agg.contains(("STAGGER", "HTCD")) && agg.contains(("STAGGER", "ER")))
    val a = agg(("STAGGER", "HTCD"))
    assert(a.mean > 0.2 && a.std >= 0.0)
  }

  test("grid outcomes are reproducible per seed") {
    val cells = Seq(Cell("STAGGER", "HTCD", 7))
    val a = EvalGrid.run(spark, cells).head
    val b = EvalGrid.run(spark, cells).head
    assert(a.kappa == b.kappa && a.cF1 == b.cF1)
  }
}

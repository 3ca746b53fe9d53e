package repro.eval.tables

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Cell, RunOutcome}
import repro.stream.Datasets

class TablesSpec extends AnyFunSuite {
  import Tables._

  /** A made-up outcome for every cell that meets every shape check. */
  private val passing: Seq[RunOutcome] = cells.map { case Cell(d, s, seed) =>
    val cF1 = s match {
      case "DWM" | "ARF" => 2.0 / (1.0 + Datasets.byName(d).numContexts)
      case "FiCSUM"      => 0.9
      case _             => 0.5
    }
    RunOutcome(d, s, seed, kappa = if (s == "U-MI") 0.3 else 0.5, cF1 = cF1,
      discrimination = 1.0, runtimeMs = 1L, numModels = 1)
  }

  private def failuresWith(select: RunOutcome => Boolean)(change: RunOutcome => RunOutcome): Seq[String] =
    shapeFailures(passing.map(o => if (select(o)) change(o) else o))

  test("Table II lists the 11 datasets under a two-line header") {
    assert(tableII().linesIterator.size == 13)
  }

  test("cells is the distinct union of the Table III/IV, V and VI grids") {
    assert(cells.distinct == cells)
    assert(cells.toSet == (MainCells ++ FnCells ++ FrameworkCells).toSet)
    assert(MainCells.size + FnCells.size + FrameworkCells.size == 875)
    assert(cells.size == 785) // Table VI's ER and FiCSUM rows are III/IV cells
  }

  test("every table formats from outcomes alone") {
    assert(tableIII(passing).linesIterator.size == 13)
    assert(tableIV(passing).linesIterator.size == 29)
    assert(tableV(passing).linesIterator.size == 40)
    assert(tableVI(passing).linesIterator.size == 25)
  }

  test("an outcome set that meets every shape check has no failure") {
    assert(shapeFailures(passing).isEmpty)
  }

  test("ARF's C-F1 off the single-model ceiling by 1e-6 fails the ceiling check") {
    val failures = failuresWith(o => o.system == "ARF" && o.dataset == "CMC")(o => o.copy(cF1 = o.cF1 + 1e-6))
    assert(failures.size == 1 && failures.head.startsWith("Table VI: ARF on CMC:"), failures)
  }

  test("FiCSUM beating ARF's C-F1 on 3 of 9 datasets fails the wins check") {
    val losing = FrameworkDatasets.drop(3).toSet
    val failures = failuresWith(o => o.system == "FiCSUM" && losing(o.dataset))(_.copy(cF1 = 0.1))
    assert(failures == Seq("Table VI: FiCSUM C-F1 beats ARF on only 3/9 datasets"))
  }

  test("U-MI kappa equal to ER's on AQSex fails the U-MI check") {
    val failures = failuresWith(o => o.system == "U-MI" && o.dataset == "AQSex")(_.copy(kappa = 0.5))
    assert(failures == Seq("Table IV: U-MI should underperform ER on AQSex (p(y|X) drift)"))
  }

  test("one kappa of 1.01 fails the kappa range check") {
    val failures = failuresWith(_ == passing.find(_.system == "S-MI").get)(_.copy(kappa = 1.01))
    assert(failures.size == 1 && failures.head.startsWith("Table IV: kappa outside [-1.0, 1.0]"), failures)
  }

  test("each remaining check, broken alone, returns its own message") {
    assert(failuresWith(_ => true)(_.copy(discrimination = Double.NaN)) == Seq("Table III: measurable=0"))
    assert(failuresWith(o => o.system == "U-MI" && o.dataset == "STAGGER")(_.copy(kappa = 0.6)) ==
      Seq("Table IV: U-MI should underperform ER on STAGGER (labelling-function drift)"))
    assert(failuresWith(o => o.system == "HTCD" && o.dataset == "STAGGER")(_.copy(cF1 = 0.75)) ==
      Seq("Table VI: HTCD C-F1 on STAGGER 0.75 > 0.6"))
    val fnCell = passing.find(_.system == "fn:Mean").get
    val failures = failuresWith(_ == fnCell)(_.copy(cF1 = 1.01))
    assert(failures.size == 1 && failures.head.startsWith("Table V: C-F1 outside [0.0, 1.0]"), failures)
  }

  test("the rendered text of Tables II–VI is pinned by its SHA-256") {
    // Distinct values per cell; some discriminations NaN or above the 500
    // clamp; no outcome at all for (QG, U-MI), which reads as NaN cells.
    val rng = new scala.util.Random(9)
    val outcomes = cells.filterNot(c => c.dataset == "QG" && c.system == "U-MI").map { case Cell(d, s, seed) =>
      val disc = if (rng.nextInt(10) == 0) Double.NaN else rng.nextDouble() * 1000
      RunOutcome(d, s, seed, kappa = rng.nextDouble() * 2 - 1, cF1 = rng.nextDouble(),
        discrimination = disc, runtimeMs = rng.nextInt(100000).toLong, numModels = 1)
    }
    val text = Seq(tableII(), tableIII(outcomes), tableIV(outcomes), tableV(outcomes), tableVI(outcomes)).mkString
    val sha = java.security.MessageDigest.getInstance("SHA-256")
      .digest(text.getBytes(java.nio.charset.StandardCharsets.UTF_8)).map(b => f"$b%02x").mkString
    assert(sha == "f9bad05b79d15dd43dfad1fe5edbed8ec6a593b4d2fddcc9d47c46b2dd5e4ee6")
  }

  test("one missing cell fails its table's grid-size check") {
    def without(cell: Cell) = shapeFailures(passing.filterNot(o => Cell(o.dataset, o.system, o.seed) == cell))
    assert(without(MainCells.head) == Seq(s"Table III: ${MainCells.size - 1} of ${MainCells.size} cells"))
    assert(without(FnCells.head) == Seq(s"Table V: ${FnCells.size - 1} of ${FnCells.size} cells"))
  }

  test("a pair with no outcome reads as NaN and fails its checks without throwing") {
    // All 5 seeds of (AQSex, U-MI) missing: the grid-size check counts them,
    // and the U-MI check compares a NaN mean, which never underperforms.
    val failures = shapeFailures(passing.filterNot(o => o.dataset == "AQSex" && o.system == "U-MI"))
    assert(failures == Seq("Table III: 215 of 220 cells",
      "Table IV: U-MI should underperform ER on AQSex (p(y|X) drift)"))
  }
}

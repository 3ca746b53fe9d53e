package repro.eval.tables

import repro.eval.{Agg, Cell, EvalGrid, Metrics, RunOutcome}
import repro.meta.MetaFunctions
import repro.stream.Datasets

/** The paper's evaluation tables as pure functions of run outcomes. Each
  * builder formats the table text from the outcomes of its grid; `cells`
  * is the union of the grids, so one grid run feeds every table, and
  * `shapeFailures` checks the outcomes against the paper's headline shapes.
  * Paper values are embedded for Tables III/IV/VI so a run prints
  * ours-vs-paper side by side; Table V's paper grid is in EXPERIMENTS.md.
  */
object Tables {

  /** Seeds per cell (paper: 20; scaled down, std devs still reported). */
  val Seeds: Seq[Long] = Seq(1L, 2L, 3L, 4L, 5L)

  private def grid(datasets: Seq[String], systems: Seq[String]): Seq[Cell] =
    for (d <- datasets; s <- systems; seed <- Seeds) yield Cell(d, s, seed)

  /** The one table renderer: a header line (`corner`, then each column's
    * head right-aligned in the column's width), then one line per row (its
    * label, then its formatted cells, each padded on the right to its
    * column's width), every label left-aligned in `labelWidth`. A column is
    * its head and its width, so a head lines up with the cells below it.
    */
  private def render(corner: String, labelWidth: Int, columns: Seq[(String, Int)])(rows: Seq[(String, Seq[String])]): String = {
    val heads = columns.map { case (head, width) => " " * (width - head.length) + head }
    val widths = columns.map(_._2)
    ((corner -> heads) +: rows).map { case (label, cells) =>
      label.padTo(labelWidth, ' ') + cells.zip(widths).map { case (cell, width) => cell.padTo(width, ' ') }.mkString + "\n"
    }.mkString
  }

  // ------------------------------------------------------------- Table II

  def tableII(): String = {
    val paperLen = Map("AQTemp" -> 24000, "AQSex" -> 24000, "Arabic" -> 8800, "CMC" -> 1473,
      "QG" -> 4010, "UCI-Wine" -> 6498, "RBF" -> 30000, "RTREE" -> 30000, "STAGGER" -> 30000,
      "HPLANE-U" -> 30000, "RTREE-U" -> 30000)
    "TABLE II: dataset characteristics (paper length -> scaled length)\n" +
      render("Dataset", 10, Seq("Length" -> 9, "#feat" -> 7, "#ctx" -> 6, "paperLen" -> 11))(
        Datasets.all.map(ds => ds.name -> Seq(f" ${ds.length}%8d", f" ${ds.numFeatures}%6d",
          f" ${ds.numContexts}%5d", f"   ${paperLen(ds.name)}%8d")))
  }

  // ------------------------------------- Tables III & IV (shared 11x4 grid)

  val MainDatasets: Seq[String] = Datasets.all.map(_.name)
  val MainSystems: Seq[String] = Seq("ER", "S-MI", "U-MI", "FiCSUM")

  /** The grid Tables III and IV share. */
  val MainCells: Seq[Cell] = grid(MainDatasets, MainSystems)

  private val PaperDisc: Map[String, Seq[Double]] = Map( // ER, S-MI, U-MI, FiCSUM
    "AQSex" -> Seq(140.16, 173.15, 51.11, 190.26),
    "AQTemp" -> Seq(8.83, 128.64, 71.15, 184.91),
    "STAGGER" -> Seq(963.32, 339.10, 13.09, 138.55),
    "RTREE" -> Seq(6404.99, 87.73, 38.25, 289.15),
    "RBF" -> Seq(10.29, 160.97, 22.75, 224.33),
    "Arabic" -> Seq(28.94, 106.24, 180.47, 265.38),
    "CMC" -> Seq(1.12, 23.26, 20.25, 60.64),
    "HPLANE-U" -> Seq(18.31, 110.35, 74.01, 215.56),
    "QG" -> Seq(18.43, 90.53, 25.78, 25.31),
    "RTREE-U" -> Seq(8.81, 179.24, 129.96, 222.17),
    "UCI-Wine" -> Seq(0.42, 45.50, 55.22, 131.93),
  )

  private val PaperKappa: Map[String, Seq[Double]] = Map(
    "AQSex" -> Seq(0.93, 0.90, 0.71, 0.94),
    "AQTemp" -> Seq(0.58, 0.50, 0.36, 0.47),
    "STAGGER" -> Seq(0.98, 0.97, 0.41, 0.97),
    "RBF" -> Seq(0.75, 0.72, 0.68, 0.73),
    "RTREE" -> Seq(0.93, 0.79, 0.34, 0.94),
    "Arabic" -> Seq(0.86, 0.77, 0.85, 0.86),
    "CMC" -> Seq(0.21, 0.22, 0.25, 0.27),
    "HPLANE-U" -> Seq(0.43, 0.42, 0.44, 0.44),
    "QG" -> Seq(0.66, 0.59, 0.73, 0.72),
    "RTREE-U" -> Seq(0.73, 0.68, 0.81, 0.80),
    "UCI-Wine" -> Seq(0.20, 0.18, 0.23, 0.23),
  )

  private val PaperCF1: Map[String, Seq[Double]] = Map(
    "AQSex" -> Seq(0.51, 0.41, 0.65, 0.75),
    "AQTemp" -> Seq(0.65, 0.49, 0.63, 0.72),
    "STAGGER" -> Seq(0.98, 0.94, 0.48, 0.91),
    "RBF" -> Seq(0.82, 0.67, 0.53, 0.73),
    "RTREE" -> Seq(0.76, 0.50, 0.30, 0.74),
    "Arabic" -> Seq(0.57, 0.38, 0.85, 0.85),
    "CMC" -> Seq(0.56, 0.61, 0.80, 0.76),
    "HPLANE-U" -> Seq(0.31, 0.28, 0.95, 0.75),
    "QG" -> Seq(0.36, 0.32, 0.52, 0.52),
    "RTREE-U" -> Seq(0.53, 0.47, 0.95, 0.91),
    "UCI-Wine" -> Seq(0.54, 0.51, 0.73, 0.92),
  )

  private def clamp500(a: Agg): Agg =
    Agg(math.min(a.mean, 500.0), math.min(a.std, 500.0))

  def tableIII(outcomes: Seq[RunOutcome]): String = {
    val disc = EvalGrid.aggregate(outcomes, _.discrimination)
    "TABLE III: discrimination ability — ours mean (std) [paper]\n" +
      render("Dataset", 10, MainSystems.map(_ -> 24))(MainDatasets.map(d =>
        d -> MainSystems.zipWithIndex.map { case (s, i) =>
          val a = clamp500(disc((d, s)))
          f"${a.mean}%6.2f (${a.std}%5.2f) [${PaperDisc(d)(i)}%7.2f]"
        }))
  }

  def tableIV(outcomes: Seq[RunOutcome]): String =
    "TABLE IV: kappa and C-F1 — ours mean (std) [paper]\n" + Seq(
      ("kappa", EvalGrid.aggregate(outcomes, _.kappa), PaperKappa),
      ("C-F1", EvalGrid.aggregate(outcomes, _.cF1), PaperCF1),
    ).map { case (label, agg, paper) =>
      val ranks = Metrics.averageRanks(MainDatasets.map(d => MainSystems.map(s => s -> agg((d, s)).mean).toMap))
      s"-- $label --\n" + render("Dataset", 10, MainSystems.map(_ -> 21))(
        MainDatasets.map(d => d -> MainSystems.zipWithIndex.map { case (s, i) =>
          val a = agg((d, s))
          f"  ${a.mean}%5.2f (${a.std}%4.2f) [${paper(d)(i)}%4.2f]"
        }) :+ ("Avg Rank" -> MainSystems.map(s => f"  ${ranks(s)}%5.2f")))
    }.mkString

  // ------------------------------------------------------------- Table V

  val SynthDatasets: Seq[String] = Datasets.synthFamily.map(_.name)
  val FnSystems: Seq[String] =
    ("fn:Shapley Value" +: MetaFunctions.tableVGroups.map { case (l, _) => s"fn:$l" }) :+ "FiCSUM"

  val FnCells: Seq[Cell] = grid(SynthDatasets, FnSystems)

  def tableV(outcomes: Seq[RunOutcome]): String =
    "TABLE V: per-meta-information-function performance under induced drift (ours)\n" + Seq(
      ("kappa", EvalGrid.aggregate(outcomes, _.kappa)),
      ("C-F1", EvalGrid.aggregate(outcomes, _.cF1)),
      ("discrimination", EvalGrid.aggregate(outcomes, _.discrimination).andThen(clamp500 _)),
    ).map { case (label, agg) =>
      s"-- $label --\n" + render("Function", 26, SynthDatasets.map(_.stripPrefix("Synth_") -> 14))(
        FnSystems.map(s => s.stripPrefix("fn:") -> SynthDatasets.map { d =>
          val a = agg((d, s))
          f"  ${a.mean}%5.2f (${a.std}%4.2f)"
        }))
    }.mkString

  // ------------------------------------------------------------- Table VI

  val FrameworkDatasets: Seq[String] =
    Seq("AQSex", "CMC", "UCI-Wine", "RBF", "RTREE-U", "Arabic", "HPLANE-U", "QG", "STAGGER")
  val Frameworks: Seq[String] = Seq("HTCD", "RCD", "ER", "DWM", "ARF", "FiCSUM")

  private val PaperVIKappa: Map[String, Seq[Double]] = Map( // per framework row
    "HTCD" -> Seq(0.94, 0.23, 0.21, 0.62, 0.57, 0.86, 0.42, 0.84, 0.95),
    "RCD" -> Seq(0.69, 0.17, 0.06, 0.52, 0.51, 0.74, 0.06, 0.54, 0.82),
    "ER" -> Seq(0.93, 0.20, 0.20, 0.79, 0.72, 0.81, 0.41, 0.59, 0.99),
    "DWM" -> Seq(0.88, 0.19, 0.18, 0.56, 0.49, 0.85, 0.42, 0.66, 0.91),
    "ARF" -> Seq(0.94, 0.40, 0.34, 0.82, 0.71, 0.91, 0.48, 0.97, 0.99),
    "FiCSUM" -> Seq(0.95, 0.30, 0.26, 0.81, 0.83, 0.90, 0.42, 0.84, 0.98),
  )

  private val PaperVICF1: Map[String, Seq[Double]] = Map(
    "HTCD" -> Seq(0.12, 0.45, 0.13, 0.11, 0.11, 0.12, 0.18, 0.12, 0.11),
    "RCD" -> Seq(0.19, 0.45, 0.47, 0.29, 0.25, 0.27, 0.27, 0.28, 0.20),
    "ER" -> Seq(0.55, 0.62, 0.52, 0.84, 0.53, 0.45, 0.34, 0.34, 0.98),
    "DWM" -> Seq(0.29, 0.67, 0.63, 0.29, 0.29, 0.29, 0.29, 0.29, 0.50),
    "ARF" -> Seq(0.29, 0.67, 0.63, 0.29, 0.29, 0.29, 0.29, 0.29, 0.50),
    "FiCSUM" -> Seq(0.80, 0.80, 0.71, 0.88, 0.94, 0.83, 0.78, 0.64, 0.96),
  )

  val FrameworkCells: Seq[Cell] = grid(FrameworkDatasets, Frameworks)

  def tableVI(outcomes: Seq[RunOutcome]): String =
    "TABLE VI: framework comparison — ours mean (std) [paper]\n" + Seq(
      ("kappa", EvalGrid.aggregate(outcomes, _.kappa), Some(PaperVIKappa)),
      ("C-F1", EvalGrid.aggregate(outcomes, _.cF1), Some(PaperVICF1)),
      ("runtime (ms, ours only; paper used s on their testbed)",
        EvalGrid.aggregate(outcomes, _.runtimeMs.toDouble), None),
    ).map { case (label, agg, paper) =>
      s"-- $label --\n" + render("Framework", 10, FrameworkDatasets.map(_ -> 18))(
        Frameworks.map(s => s -> FrameworkDatasets.zipWithIndex.map { case (d, i) =>
          val a = agg((d, s))
          paper match {
            case Some(p) => f" ${a.mean}%5.2f(${a.std}%4.2f)[${p(s)(i)}%4.2f]"
            case None    => f"  ${a.mean}%9.0f(${a.std}%5.0f)"
          }
        }))
    }.mkString

  // ------------------------------------------------ one grid, shape checks

  /** Every distinct cell of Tables III–VI. Table VI's ER and FiCSUM rows are
    * cells of the III/IV grid, so one run of these feeds every table.
    */
  val cells: Seq[Cell] = (MainCells ++ FnCells ++ FrameworkCells).distinct

  /** The paper's headline shapes, each checked over the outcomes of its own
    * table's grid. Returns one message per violation; empty when all hold.
    */
  def shapeFailures(outcomes: Seq[RunOutcome]): Seq[String] = {
    def of(grid: Seq[Cell]): Seq[RunOutcome] = {
      val in = grid.toSet
      outcomes.filter(o => in(Cell(o.dataset, o.system, o.seed)))
    }
    def check(holds: Boolean, message: => String): Seq[String] = if (holds) Nil else Seq(message)
    def outside(os: Seq[RunOutcome], what: String, measure: RunOutcome => Double, lo: Double): Seq[String] =
      os.filterNot(o => measure(o) >= lo && measure(o) <= 1.0).map(o => s"$what outside [$lo, 1.0]: $o")

    val main = of(MainCells)
    val fn = of(FnCells)
    val fw = of(FrameworkCells)
    val kappa = EvalGrid.aggregate(main, _.kappa)
    val cf1 = EvalGrid.aggregate(fw, _.cF1)

    // Table III: discrimination is measurable for the fingerprint systems on
    // most cells (NaN = the system never stored >= 2 concepts anywhere).
    val measurable = main.count(o => !o.discrimination.isNaN)
    val tableIII =
      check(main.size == MainCells.size, s"Table III: ${main.size} of ${MainCells.size} cells") ++
        check(measurable > main.size / 3, s"Table III: measurable=$measurable")

    // Table IV: U-MI fails on the p(y|X)-drift datasets relative to
    // supervised MI, and every kappa and C-F1 is a valid value.
    val tableIV =
      check(kappa(("AQSex", "U-MI")).mean < kappa(("AQSex", "ER")).mean,
        "Table IV: U-MI should underperform ER on AQSex (p(y|X) drift)") ++
        check(kappa(("STAGGER", "U-MI")).mean < kappa(("STAGGER", "ER")).mean,
          "Table IV: U-MI should underperform ER on STAGGER (labelling-function drift)") ++
        outside(main, "Table IV: kappa", _.kappa, -1.0) ++ outside(main, "Table IV: C-F1", _.cF1, 0.0)

    val tableV =
      check(fn.size == FnCells.size, s"Table V: ${fn.size} of ${FnCells.size} cells") ++
        outside(fn, "Table V: C-F1", _.cF1, 0.0)

    // Table VI: ensembles keep one evolving representation, so their C-F1
    // equals the single-model ceiling exactly (paper's constant rows).
    val ceilings = for {
      d <- FrameworkDatasets; s <- Seq("DWM", "ARF")
      expected = 2.0 / (1.0 + Datasets.byName(d).numContexts)
      msg <- check(math.abs(cf1((d, s)).mean - expected) < 1e-9,
        s"Table VI: $s on $d: ${cf1((d, s)).mean} vs single-model ceiling $expected")
    } yield msg
    // HTCD never reuses models: its C-F1 is capped by the per-segment
    // ceiling 2·(1/occ)/(1+1/occ) = 0.5 at 3 occurrences (0.18 at the
    // paper's 9 — the gap to FiCSUM is structurally smaller at this scale);
    // lag-shifted boundaries can push slightly past the exact ceiling.
    val htcd = cf1(("STAGGER", "HTCD")).mean
    // FiCSUM tracks concepts better than the single-representation ensemble
    // on a meaningful share of datasets.
    val wins = FrameworkDatasets.count(d => cf1((d, "FiCSUM")).mean > cf1((d, "ARF")).mean)
    val tableVI = ceilings ++
      check(htcd <= 0.6, s"Table VI: HTCD C-F1 on STAGGER $htcd > 0.6") ++
      check(wins >= 4, s"Table VI: FiCSUM C-F1 beats ARF on only $wins/9 datasets")

    tableIII ++ tableIV ++ tableV ++ tableVI
  }
}

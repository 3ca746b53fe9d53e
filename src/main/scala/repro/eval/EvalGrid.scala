package repro.eval

import org.apache.spark.sql.SparkSession
import repro.core.{FiCSUM, FingerprintSpec}
import repro.baselines.{Arf, Dwm, Htcd, Rcd}
import repro.meta.MetaFunctions
import repro.stream.Datasets

/** Builds systems by name inside Spark tasks (names, not closures, cross
  * the serialization boundary).
  */
object Systems {

  /** The FiCSUM variants are fingerprint specs (paper §VI): ER, S-MI and
    * U-MI restrict the sources, and the Table V rows "fn:<group label>"
    * restrict the functions ("fn:Shapley Value" keeps only the per-feature
    * importance dims).
    */
  def create(name: String, d: Int, k: Int, seed: Long): StreamSystem = {
    def ficsum(spec: FingerprintSpec) = new FiCSUM(name, d, k, spec, seed = seed)
    name match {
      case "FiCSUM"           => ficsum(FingerprintSpec.full(d))
      case "S-MI"             => ficsum(FingerprintSpec.supervised(d))
      case "U-MI"             => ficsum(FingerprintSpec.unsupervised(d))
      case "ER"               => ficsum(FingerprintSpec.errorRate(d))
      case "fn:Shapley Value" => ficsum(FingerprintSpec.shapleyOnly(d))
      case s if s.startsWith("fn:") =>
        val label = s.stripPrefix("fn:")
        val fns = MetaFunctions.tableVGroups.collectFirst { case (l, f) if l == label => f }
          .getOrElse(throw new NoSuchElementException(s"unknown function group $label"))
        ficsum(FingerprintSpec.singleFunction(d, fns))
      case "HTCD" => new Htcd(d, k)
      case "RCD"  => new Rcd(d, k)
      case "DWM"  => new Dwm(d, k)
      case "ARF"  => new Arf(d, k, seed = seed)
      case other  => throw new NoSuchElementException(s"unknown system $other")
    }
  }
}

/** One experiment cell of a table's grid. */
final case class Cell(dataset: String, system: String, seed: Long) extends Serializable

/** Aggregated (mean, std) of one measure over seeds. */
final case class Agg(mean: Double, std: Double)

/** Runs experiment grids with each cell as one Spark task — the evaluation
  * is embarrassingly parallel over (dataset × system × seed), which is how
  * this reproduction uses the cluster (DESIGN.md §3).
  */
object EvalGrid {

  def run(spark: SparkSession, cells: Seq[Cell]): Seq[RunOutcome] = {
    val sc = spark.sparkContext
    sc.parallelize(cells, cells.length)
      .map { cell =>
        val ds = Datasets.byName(cell.dataset)
        val stream = ds.build(cell.seed)
        val system = Systems.create(cell.system, stream.numFeatures, stream.numClasses, cell.seed)
        Runner.run(system, stream, cell.seed)
      }
      .collect()
      .toSeq
  }

  /** Mean and σ of `measure` per (dataset, system) over its non-NaN
    * values. A pair with none, or with no outcome at all, reads
    * `Agg(NaN, NaN)`: that is the map's default value.
    */
  def aggregate(outcomes: Seq[RunOutcome], measure: RunOutcome => Double): Map[(String, String), Agg] =
    outcomes
      .map(o => ((o.dataset, o.system), measure(o)))
      .filterNot(_._2.isNaN)
      .groupMap(_._1)(_._2)
      .view
      .mapValues(vals => Agg(Metrics.mean(vals), Metrics.stdDev(vals)))
      .toMap
      .withDefaultValue(Agg(Double.NaN, Double.NaN))
}

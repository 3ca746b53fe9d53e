package perfbench

import java.nio.file.{Path, Paths}
import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** One benchmark run: its arguments, run conditions, report and spans. */
final class Ctx(
    val workload: String,
    val seed: Long,
    val seconds: Int,
    val trace: Boolean,
    val tiny: Boolean,
    val corrupt: Boolean,
) {
  val report = new Report
  val nproc: Int = sys.props.get("perfbench.nproc").map(_.toInt)
    .getOrElse(Runtime.getRuntime.availableProcessors())
  /** Build/scratch directory inside the checkout (traces, Spark local dirs). */
  val workDir: Path = Paths.get(sys.props.getOrElse("perfbench.work", ".bench_build")).toAbsolutePath

  private val spanBufs = mutable.ArrayBuffer.empty[Spans]
  def newSpans(): Spans = synchronized { val s = new Spans; spanBufs += s; s }
  def allSpans: Seq[Spans] = synchronized(spanBufs.toList)

  @volatile private var sparkStarted = false
  lazy val spark: SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$nproc]")
      .appName(s"perfbench-$workload")
      .config("spark.sql.shuffle.partitions", nproc.toString)
      .config("spark.default.parallelism", nproc.toString)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", workDir.resolve("spark-local").toString)
      .config("spark.sql.streaming.numRecentProgressUpdates", "10000")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    sparkStarted = true
    s
  }
  def stopSpark(): Unit = if (sparkStarted) spark.stop()

  /** Builds the inputs untimed `warm` times (the first builds run cold
    * code), then `times` times more, each after a full GC; reports the median
    * of those as setup_s and the median stream build time as
    * stream.build_ms, and returns the last input.
    */
  def setup[A](warm: Int = 3, times: Int = 15)(f: => (A, Long)): A = {
    (1 to warm).foreach(_ => f)
    val runs = (1 to times).map { _ =>
      System.gc()
      val ((a, buildNs), ns) = Stats.timed(f)
      (a, buildNs, ns)
    }
    report.put("setup_s", Stats.median(runs.map(_._3 / 1e9)), "s")
    report.put("stream.build_ms", Stats.median(runs.map(_._2 / 1e6)), "ms")
    runs.last._1
  }

  /** Runs a fixed number of measuring passes: `seconds` divided by the
    * workload's nominal pass length, at least two. The count depends only
    * on the arguments, never on how fast the machine or the code is.
    */
  def passes(nominalPassS: Double)(f: Int => Unit): Unit = {
    val n = math.max(2, math.round(seconds / nominalPassS).toInt)
    (0 until n).foreach { p =>
      val (_, ns) = Stats.timed(f(p))
      report.say(f"pass ${p + 1} of $n took ${ns / 1e9}%.3f s")
    }
  }
}

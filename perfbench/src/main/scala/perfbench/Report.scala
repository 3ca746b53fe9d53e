package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable

/** Collects metrics and correctness checks and prints the result. Lines
  * starting with `#` are for people; the last line is the JSON result.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]
  private var attempted = 0L
  private var failed = 0L

  /** A measured figure. A missing measurement (NaN, infinite) is an error,
    * never a printed value.
    */
  def put(name: String, value: Double, unit: String): Unit = {
    if (value.isNaN || value.isInfinite) throw new IllegalStateException(s"metric $name was not measured ($value)")
    metrics(name) = (value, unit)
  }

  def say(line: String): Unit = println(s"# $line")

  /** One checked operation; a mismatch counts as failed. */
  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) { failed += 1; say(s"MISMATCH $what") }
  }

  /** Prints the JSON line with every metric measured; run.py keeps the
    * ones BENCHMARK.json names for the run's mode.
    */
  def finish(): Unit = {
    say(f"failed_ratio=${if (attempted == 0) 0.0 else failed.toDouble / attempted}%.6f ($failed of $attempted checks)")
    val body = metrics.map { case (n, (v, u)) => s""""$n": {"value": ${Report.num(v)}, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": ${failed == 0 && attempted > 0}, "attempted": ${math.max(attempted, 1)}, "failed": $failed, "metrics": {$body}}""")
  }

  /** Prints every metric with its unit, for people. */
  def sayAll(): Unit = metrics.foreach { case (n, (v, u)) => say(f"$n%-34s ${Report.num(v)} $u") }
}

object Report {
  def num(v: Double): String = java.math.BigDecimal.valueOf(v).toPlainString

  /** Heap used after a full GC, in MB: the live heap at this point. */
  def liveHeapMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

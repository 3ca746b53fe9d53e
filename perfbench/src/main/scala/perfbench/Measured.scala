package perfbench

import scala.collection.mutable

/** End-to-end measurements of one measuring phase: a fixed number of passes
  * over the same inputs. An "op" is the workload's unit of work: one `step`
  * call (seq-*), one micro-batch (stream-multikey) or one grid cell
  * (grid-variants).
  */
final class Measured(val opName: String, busyIsWall: Boolean = false) {
  private val passOps = mutable.ArrayBuffer.empty[Array[Long]]
  private var obsPerPass = 0L
  val passWallNs = mutable.ArrayBuffer.empty[Long]
  val stateBytes = mutable.ArrayBuffer.empty[Double]
  var heapMb = 0.0
  val cells = mutable.ArrayBuffer.empty[CellRun]

  /** One pass: its op latencies, observations and wall time. */
  def addPass(ops: Array[Long], obs: Long, wallNs: Long): Unit = {
    require(passOps.isEmpty || passOps.head.length == ops.length, "every pass must do the same ops")
    passOps += ops; obsPerPass = obs; passWallNs += wallNs
  }
  def noteHeap(): Unit = heapMb = math.max(heapMb, Report.liveHeapMb())

  /** Time the pass spent in ops (its wall time when ops overlap). */
  private def busyNs(p: Int): Long = if (busyIsWall) passWallNs(p) else passOps(p).sum

  /** The pass that spent least time in ops. Every pass does the same work on
    * the same inputs, so it is the one least disturbed by GC and the machine;
    * every op figure is read off this one pass.
    */
  private def fastest: Int = passOps.indices.minBy(busyNs)

  /** Observations per second of op time in the fastest pass. */
  def obsPerS: Double = obsPerPass / (busyNs(fastest) / 1e9)
  def wallS: Double = passWallNs.min / 1e9

  /** The end-to-end metrics (all but setup_s) into `r`, and the
    * end-to-end figures that vary too much from seed to seed to gate a
    * change (reported under `e2e.` without a bound).
    */
  def report(r: Report, suffix: String = ""): Unit = {
    values.foreach { case (n, v, u) => r.put(n + suffix, v, u) }
    val sorted = passOps(fastest).sorted
    val p99 = Stats.pct(sorted, 0.99)
    val tail = Stats.tail(sorted)
    r.say(s"op = $opName; ${sorted.length} ops of the fastest of ${passWallNs.length} passes; " +
      s"e2e.op_tail_us is ${tail.label} with ${tail.beyond} samples beyond it; p99 has ${p99.beyond} beyond")
  }

  /** (name, value, unit) of every end-to-end figure but setup_s. */
  def values: Seq[(String, Double, String)] = {
    val sorted = passOps(fastest).sorted
    Seq(
      ("obs_per_s", obsPerS, "obs/s"),
      ("wall_s", wallS, "s"),
      ("e2e.op_p50_us", Stats.pct(sorted, 0.5).value / 1e3, "us"),
      ("e2e.op_p99_us", Stats.pct(sorted, 0.99).value / 1e3, "us"),
      ("e2e.op_tail_us", Stats.tail(sorted).value / 1e3, "us"),
      ("e2e.state_bytes_per_key", Stats.mean(stateBytes.toSeq), "bytes"),
      ("e2e.heap_peak_mb", heapMb, "MB"))
  }
}

object Measured {
  /** Figures whose traced-minus-untraced difference is the tracing overhead. */
  val overheadOf: Seq[(String, String)] = Seq(
    "obs_per_s" -> "obs/s", "wall_s" -> "s", "e2e.op_p50_us" -> "us", "e2e.op_p99_us" -> "us")
}

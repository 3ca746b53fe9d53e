package perfbench

import repro.core.FiCSUM

/** Per-layer metrics read off traced cells, and the tracing overhead. The
  * rest come from [[Replay]] and the Spark workloads.
  */
object Layers {

  /** Tracing overhead: traced minus untraced end-to-end metrics. */
  def overhead(r: Report, untraced: Measured, traced: Measured): Unit = {
    val u = untraced.values.map(v => v._1 -> v._2).toMap
    val t = traced.values.map(v => v._1 -> v._2).toMap
    traced.report(r, ".traced")
    Measured.overheadOf.foreach { case (n, unit) =>
      r.put(s"trace.overhead.${n.stripPrefix("e2e.")}", t(n) - u(n), unit)
    }
  }

  /** Step-class, counter and eval metrics of traced FiCSUM-family cells
    * that ran over `wallNs` on `cores` cores.
    */
  def fromCells(r: Report, cells: Seq[CellRun], wallNs: Long, cores: Int): Unit = {
    val merged = Array.fill(StepClass.names.length)(new LongBuf)
    cells.foreach(c => c.classes.indices.foreach(i => merged(i) ++= c.classes(i)))
    StepClass.names.indices.foreach { i =>
      r.put(s"steps.${StepClass.names(i)}.count", merged(i).length.toDouble, "count")
      r.put(s"steps.${StepClass.names(i)}.self_ms", merged(i).sum / 1e6, "ms")
    }
    def medianOf(i: Int): Double = if (merged(i).length == 0) 0.0 else Stats.pct(merged(i).sorted, 0.5).value
    r.put("core.step_fingerprint_us", medianOf(StepClass.Fingerprint) / 1e3, "us")
    r.put("core.step_detect_us", medianOf(StepClass.Detect) / 1e3, "us")
    r.put("core.step_drift_ms", medianOf(StepClass.Drift) / 1e6, "ms")
    r.put("core.step_sc_refresh_ms", medianOf(StepClass.ScRefresh) / 1e6, "ms")
    val total = merged.map(_.sum).sum.toDouble
    r.put("core.fingerprint_step_share", if (total == 0) 0.0 else 1.0 - merged(StepClass.Plain).sum / total, "ratio")

    val fics = cells.map(_.system).collect { case f: FiCSUM => f }
    r.put("core.fingerprint_updates", fics.map(_.fingerprintUpdates).sum.toDouble, "count")
    r.put("core.detector_updates", fics.map(_.detectorUpdates).sum.toDouble, "count")
    r.put("core.drifts", fics.map(_.driftCount).sum.toDouble, "count")
    r.put("core.repo_size", fics.map(_.repositorySize).sum.toDouble, "count")

    val cellMs = cells.map(_.wallNs / 1e6)
    r.put("eval.probe_ms", cells.map(_.probeNs).sum / 1e6, "ms")
    r.put("eval.metrics_ms", cells.map(_.metricsNs).sum / 1e6, "ms")
    cellSpread(r, cellMs, wallNs, cores)
  }

  /** eval.cell_ms_* and how well `cores` cores were kept busy over `wallNs`. */
  def cellSpread(r: Report, cellMs: Seq[Double], wallNs: Long, cores: Int): Unit = {
    val wallMs = wallNs / 1e6
    r.put("eval.cell_ms_sum", cellMs.sum, "ms")
    r.put("eval.cell_ms_max", cellMs.max, "ms")
    r.put("eval.parallel_efficiency", cellMs.sum / (wallMs * cores), "ratio")
    r.put("eval.straggler_ms", wallMs - cellMs.sum / cores, "ms")
  }

  /** Writes the spans and prints self time per span name. */
  def writeTrace(ctx: Ctx): Unit = {
    val rows = Trace.rows(ctx.allSpans)
    val self = Trace.selfTimes(rows)
    val path = ctx.workDir.resolve("traces").resolve(s"${ctx.workload}-seed${ctx.seed}.tsv")
    Trace.write(path, rows)
    ctx.report.say(s"trace: ${rows.length} spans written to ${ctx.workDir.getFileName}/traces/${path.getFileName}")
    rows.groupBy(r => if (r.name.startsWith("cell:") || r.name.startsWith("workload:")) r.name.takeWhile(_ != ':') else r.name)
      .toSeq.sortBy(_._1).foreach { case (name, rs) =>
        ctx.report.say(f"span $name%-24s count=${rs.length}%-8d self_ms=${rs.map(x => self(x.id)).sum / 1e6}%.3f")
      }
  }
}

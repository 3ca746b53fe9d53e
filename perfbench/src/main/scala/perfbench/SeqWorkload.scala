package perfbench

import repro.eval.{Runner, Systems}
import repro.stream.{Datasets, GeneratedStream}

/** The two single-threaded workloads (no Spark): every (stream × system)
  * cell runs through [[Prequential]] in one thread.
  *
  *  - seq-fingerprint: FiCSUM over QG (d=63) and AQSex (d=25). Fingerprints,
  *    meta functions, dynamic weights and model selection dominate.
  *  - seq-classifier: HTCD, RCD, DWM, ARF and ER over AQSex, QG and RTREE.
  *    Hoeffding trees, ADWIN/EDDM and baseline bookkeeping dominate; the
  *    meta layer computes at most one dimension (ER).
  */
object SeqWorkload {

  /** Whole streams: every context recurs three times, so the repository
    * size, and with it the work per observation, varies less from seed to
    * seed than on a prefix.
    */
  def fingerprint(ctx: Ctx): Unit =
    run(ctx, Seq(Datasets.qg -> Int.MaxValue, Datasets.aqSex -> Int.MaxValue), Seq("FiCSUM"), passS = 12)

  def classifier(ctx: Ctx): Unit =
    run(ctx, Seq(Datasets.aqSex -> Int.MaxValue, Datasets.qg -> Int.MaxValue, Datasets.rtree -> Int.MaxValue),
      Seq("HTCD", "RCD", "DWM", "ARF", "ER"), passS = 4)

  def prefix(s: GeneratedStream, n: Int): GeneratedStream =
    if (n >= s.length) s else s.copy(obs = s.obs.take(n), conceptIds = s.conceptIds.take(n))

  /** Builds the workload's streams from the seed (the timed set-up). */
  def build(ctx: Ctx, specs: Seq[(Datasets.Spec, Int)]): (IndexedSeq[GeneratedStream], Long) =
    Stats.timed(specs.map { case (spec, n) =>
      prefix(spec.build(ctx.seed), if (ctx.tiny) math.min(n, 600) else n)
    }.toIndexedSeq)

  /** `passS` is the nominal length of one pass, which sets the pass count. */
  private def run(ctx: Ctx, specs: Seq[(Datasets.Spec, Int)], systems: Seq[String], passS: Double): Unit = {
    val r = ctx.report
    val streams = ctx.setup()(build(ctx, specs))
    val cells = for (s <- streams; sys <- systems) yield (s, sys)
    def create(s: GeneratedStream, sys: String) = Systems.create(sys, s.numFeatures, s.numClasses, ctx.seed)

    // Reference outcomes from Runner.run, once per cell, outside timing and
    // on all cores. This also warms the JIT before anything is measured.
    val refs = StreamParts.parallel(cells, ctx.nproc) { case (s, sys) => Outcome.of(Runner.run(create(s, sys), s, ctx.seed)) }
    refs.foreach(o => r.say(o.line))

    def measure(traced: Boolean): Measured = {
      val m = new Measured("one step call")
      val spans = if (traced) ctx.newSpans() else null
      val wid = Spans.newId()
      val t0 = System.nanoTime()
      ctx.passes(passS) { p =>
        val s0 = System.nanoTime()
        val runs = cells.map { case (s, sys) => Prequential.run(create(s, sys), s, ctx.seed, spans, wid) }
        val wall = System.nanoTime() - s0
        val ops = new LongBuf
        runs.foreach(c => ops ++= c.stepNs)
        m.addPass(ops.toArray, runs.map(_.steps.toLong).sum, wall)
        if (p == 0) m.cells ++= runs
        runs.zip(refs).zipWithIndex.foreach { case ((c, ref), i) =>
          val got = if (ctx.corrupt && p == 0 && i == 0) Outcome.corrupt(c.outcome) else c.outcome
          r.check(got.sameAs(ref), s"${got.line} vs Runner.run ${ref.line}")
        }
        m.stateBytes ++= runs.map(_.stateBytes.toDouble)
        m.noteHeap()
      }
      if (traced) spans.add(wid, s"workload:${ctx.workload}", 0L, t0, System.nanoTime())
      m
    }

    val untraced = measure(traced = false)
    untraced.report(r)
    if (ctx.trace) {
      val traced = measure(traced = true)
      Layers.overhead(r, untraced, traced)
      // One thread runs the cells in turn, so eval.parallel_efficiency is 1
      // by construction and eval.straggler_ms is the time between cells
      // (system construction); they describe scheduling on grid-variants only.
      Layers.fromCells(r, traced.cells.toSeq, traced.passWallNs.head, cores = 1)
      Replay.run(ctx, streams)
    }
  }
}

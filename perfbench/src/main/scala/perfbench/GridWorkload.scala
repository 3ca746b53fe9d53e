package perfbench

import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import repro.eval.{Cell, EvalGrid, Systems}
import repro.stream.Datasets

/** grid-variants: `EvalGrid.run` on local[nproc] over the four Table III/IV
  * variants × five datasets × one seed — the Tables III–VI grid's wall time.
  * Cell costs are skewed (QG/FiCSUM is the straggler), so scheduling and
  * CPU contention show.
  */
object GridWorkload {

  val datasets = Seq("QG", "AQSex", "Arabic", "RTREE-U", "STAGGER")
  val systems = Seq("ER", "S-MI", "U-MI", "FiCSUM")

  /** Launch and finish times (epoch ms) of every finished Spark task. */
  final class TaskTimes extends SparkListener {
    private val done = mutable.ArrayBuffer.empty[(Long, Long)]
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
      synchronized { done += ((e.taskInfo.launchTime, e.taskInfo.finishTime)); notifyAll() }
    /** Waits for `n` tasks (the listener bus is asynchronous) and clears. */
    def take(n: Int): Seq[(Long, Long)] = synchronized {
      val deadline = System.currentTimeMillis() + 30000
      while (done.length < n && System.currentTimeMillis() < deadline) wait(100)
      val out = done.toList
      done.clear()
      out
    }
  }

  def run(ctx: Ctx): Unit = {
    val r = ctx.report
    val names = if (ctx.tiny) Seq("STAGGER") else datasets
    val streams = ctx.setup()(Stats.timed(names.map(n => Datasets.byName(n).build(ctx.seed))))
    val cells = for (s <- streams; sys <- systems) yield (s, Cell(s.name, sys, ctx.seed))

    def reference(spans: Boolean): (Seq[CellRun], Long) = Stats.timed(
      StreamParts.parallel(cells, ctx.nproc) { case (s, c) =>
        Prequential.run(Systems.create(c.system, s.numFeatures, s.numClasses, c.seed), s, c.seed,
          if (spans) ctx.newSpans() else null, 0L)
      })

    // Spark starts while the sequential reference (which also warms the
    // JIT of this same JVM's executor threads) runs; neither is timed.
    val sparkF = Future(ctx.spark)(ExecutionContext.global)
    val (refs, _) = reference(spans = false)
    refs.foreach(c => r.say(c.outcome.line))
    val byKey = refs.map(c => c.outcome.key -> c.outcome).toMap
    val spark = Await.result(sparkF, Duration.Inf)
    val tasks = new TaskTimes
    spark.sparkContext.addSparkListener(tasks)
    val gridCells = cells.map(_._2)
    val obsPerGrid = streams.map(_.length.toLong).sum * systems.length

    def measure(traced: Boolean): (Measured, Seq[Double]) = {
      val m = new Measured("one grid cell (Spark task)", busyIsWall = true)
      val spans = if (traced) ctx.newSpans() else null
      val wid = Spans.newId()
      val t0 = System.nanoTime()
      var firstCellMs: Seq[Double] = Nil
      ctx.passes(12) { p =>
        val s0 = System.nanoTime()
        val outs = EvalGrid.run(spark, gridCells)
        val wall = System.nanoTime() - s0
        val done = tasks.take(gridCells.length)
        m.addPass(done.map { case (a, b) => (b - a) * 1000000L }.sorted.toArray, obsPerGrid, wall)
        if (p == 0) firstCellMs = done.map { case (a, b) => (b - a).toDouble }
        if (traced) {
          // Task times are epoch ms; place them on the nanoTime axis.
          val off = System.nanoTime() - System.currentTimeMillis() * 1000000L
          done.foreach { case (a, b) => spans.add("cell", wid, a * 1000000L + off, b * 1000000L + off) }
        }
        outs.zipWithIndex.foreach { case (o, i) =>
          val got = if (ctx.corrupt && p == 0 && i == 0) Outcome.corrupt(Outcome.of(o)) else Outcome.of(o)
          r.check(byKey.get(got.key).exists(got.sameAs), s"grid ${got.line} vs sequential ${byKey.get(got.key).map(_.line)}")
        }
        r.check(outs.length == gridCells.length, s"grid returned ${outs.length} of ${gridCells.length} cells")
        m.noteHeap()
      }
      m.stateBytes ++= refs.map(_.stateBytes.toDouble)
      if (traced) spans.add(wid, s"workload:${ctx.workload}", 0L, t0, System.nanoTime())
      (m, firstCellMs)
    }

    val (untraced, _) = measure(traced = false)
    untraced.report(r)
    if (ctx.trace) {
      val (traced, cellMs) = measure(traced = true)
      Layers.overhead(r, untraced, traced)
      val (tcells, refWall) = reference(spans = true)
      Layers.fromCells(r, tcells, refWall, ctx.nproc)
      Layers.cellSpread(r, cellMs, traced.passWallNs.head, ctx.nproc)
      Replay.run(ctx, streams)
    }
  }
}

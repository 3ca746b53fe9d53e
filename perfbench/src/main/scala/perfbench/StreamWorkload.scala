package perfbench

import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

import repro.core.{FiCSUM, FingerprintSpec}
import repro.sparkstream.WindowFingerprints
import repro.stream.{Datasets, GeneratedStream}

/** stream-multikey: `StreamingDrift.detect` over a MemoryStream of nproc
  * interleaved AQSex keys (one derived seed each), fed in fixed micro-batches
  * of 50 rows per key, one batch in flight. The whole engine of every key
  * is read from and written back to the state store each batch.
  */
object StreamWorkload {

  val RowsPerKey = 1350
  val BatchPerKey = 50

  def keySeed(seed: Long, k: Int): Long = seed * 1000 + k

  def run(ctx: Ctx): Unit = {
    val r = ctx.report
    val rowsPerKey = if (ctx.tiny) 300 else RowsPerKey
    val (streams, kb) = ctx.setup()(Stats.timed {
      val streams = (0 until ctx.nproc).map(k => SeqWorkload.prefix(Datasets.aqSex.build(keySeed(ctx.seed, k)), rowsPerKey))
      val rows = streams.zipWithIndex.map { case (s, k) => WindowFingerprints.toRows(s, k).toIndexedSeq }
      val batches = (0 until rowsPerKey by BatchPerKey).map(b => rows.map(_.slice(b, b + BatchPerKey)))
      (streams, KeyedBatches(streams.indices, batches, streams.head.numFeatures, streams.head.numClasses))
    })

    // Spark starts while the sequential reference (which also warms the
    // JIT) runs on the other cores; neither is timed.
    val sparkF = Future(ctx.spark)(ExecutionContext.global)
    val refs = StreamParts.parallel(kb.keys, ctx.nproc)(k =>
      StreamParts.sequential(kb.rowsOf(k), kb.numFeatures, kb.numClasses, ctx.seed))
    val spark = Await.result(sparkF, Duration.Inf)
    val ckpt = ctx.workDir.resolve(s"ckpt-${ProcessHandle.current.pid}")

    var corruptNext = ctx.corrupt
    def checkQuery(q: StreamParts.QueryRun, batches: Int, what: String): Unit =
      kb.keys.foreach { k =>
        val n = kb.batches.take(batches).map(_(k).length).sum
        val got = q.events.getOrElse(k, IndexedSeq.empty)
        val seen = if (corruptNext && got.nonEmpty) got.updated(0, got(0).copy(drift = !got(0).drift)) else got
        corruptNext = false
        r.check(seen == refs(k).take(n), s"$what: key $k DriftEvents differ from the sequential FiCSUM")
      }

    // Warm-up query over the first batches: Spark's own code paths.
    val warm = math.min(3, kb.batches.length)
    checkQuery(StreamParts.query(spark, kb, ctx.seed, "drift_warmup", ckpt.resolve("warmup"), warm), warm, "warm-up query")

    // State bytes as the operator writes them, by processGroup + TestGroupState.
    val replays = StreamParts.parallel(kb.keys, ctx.nproc)(k => StreamParts.groupState(k, kb, ctx.seed, splitSerDe = ctx.trace))
    kb.keys.foreach(k => r.check(replays(k).events == refs(k), s"processGroup replay: key $k DriftEvents differ"))

    var lastQuery: StreamParts.QueryRun = null
    def measure(traced: Boolean): Measured = {
      val m = new Measured(s"one micro-batch of ${BatchPerKey} rows x ${ctx.nproc} keys (first batch of each query excluded)")
      val spans = if (traced) ctx.newSpans() else null
      val wid = Spans.newId()
      val t0 = System.nanoTime()
      ctx.passes(8) { p =>
        val name = s"drift_${if (traced) "t" else "u"}$p"
        val q = StreamParts.query(spark, kb, ctx.seed, name, ckpt.resolve(name), kb.batches.length)
        checkQuery(q, kb.batches.length, s"query $name")
        m.addPass(q.batchNs.drop(1).toArray, kb.batches.drop(1).map(_.map(_.length).sum).sum.toLong, q.wallNs)
        if (traced) {
          var s = q.startNs
          q.batchNs.indices.foreach { b => spans.add(s"batch", wid, s, s + q.batchNs(b)); s += q.batchNs(b) }
        }
        m.noteHeap()
        lastQuery = q
      }
      m.stateBytes ++= replays.flatMap(_.bytes.map(_.toDouble))
      if (traced) spans.add(wid, s"workload:${ctx.workload}", 0L, t0, System.nanoTime())
      m
    }

    val untraced = measure(traced = false)
    untraced.report(r)
    val lp = lastQuery.progress.last.stateOperators.head
    r.say(s"Spark's own state figures for the last batch: memoryUsedBytes=${lp.memoryUsedBytes} " +
      s"customMetrics=${lp.customMetrics}; processGroup writes ${replays.map(_.bytes.last).sum} bytes for ${ctx.nproc} keys")
    if (ctx.trace) {
      val traced = measure(traced = true)
      Layers.overhead(r, untraced, traced)
      // Step classes: each key's engine stepped through the benchmark's loop.
      val (cells, refWall) = Stats.timed(StreamParts.parallel(streams.indices, ctx.nproc) { k =>
        val engine = new FiCSUM("FiCSUM", kb.numFeatures, kb.numClasses,
          FingerprintSpec.full(kb.numFeatures), StreamParts.cfg, ctx.seed)
        Prequential.run(engine, streams(k), ctx.seed, ctx.newSpans(), 0L)
      })
      Layers.fromCells(r, cells, refWall, ctx.nproc)
      streamLayers(r, replays, lastQuery)
      Replay.run(ctx, streams, withStream = false)
    }
    Dirs.deleteTree(ckpt)
  }

  /** sparkstream.* from processGroup replays and a query over the same batches. */
  def streamLayers(r: Report, replays: Seq[GroupReplay], q: StreamParts.QueryRun): Unit = {
    def med(xs: Seq[Long]) = Stats.median(xs.map(_ / 1e6))
    r.put("sparkstream.process_group_ms", med(replays.flatMap(_.processNs)), "ms")
    r.put("sparkstream.state_ser_ms", med(replays.flatMap(_.serNs)), "ms")
    r.put("sparkstream.state_deser_ms", med(replays.flatMap(_.deserNs)), "ms")
    r.put("sparkstream.state_bytes_max", replays.flatMap(_.bytes).max.toDouble, "bytes")
    val ps = q.progress.drop(1)
    def prog(f: org.apache.spark.sql.streaming.StreamingQueryProgress => Long) = Stats.median(ps.map(p => f(p).toDouble))
    r.put("sparkstream.state_update_ms", prog(_.stateOperators.head.allUpdatesTimeMs), "ms")
    r.put("sparkstream.state_commit_ms", prog(_.stateOperators.head.commitTimeMs), "ms")
    r.put("sparkstream.add_batch_ms", prog(_.durationMs.get("addBatch").longValue), "ms")
    val over = (1 until q.batchNs.length).map(b => (q.batchNs(b) - replays.map(_.processNs(b)).max) / 1e6)
    r.put("sparkstream.overhead_ms", Stats.median(over), "ms")
  }
}

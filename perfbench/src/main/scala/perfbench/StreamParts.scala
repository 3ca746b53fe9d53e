package perfbench

import org.apache.spark.api.java.Optional
import java.util.concurrent.Executors
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.{GroupStateTimeout, StreamingQueryProgress, TestGroupState}
import repro.core.{FiCSUM, FiCSUMConfig, FingerprintSpec}
import repro.sparkstream.{DriftEvent, ObsRow, StreamingDrift}

/** Rows of several stream keys cut into micro-batches: `batches(b)(k)` holds
  * key k's rows of batch b, in ts order.
  */
final case class KeyedBatches(keys: IndexedSeq[Int], batches: IndexedSeq[IndexedSeq[IndexedSeq[ObsRow]]],
                              numFeatures: Int, numClasses: Int) {
  def rowsOf(k: Int): IndexedSeq[ObsRow] = batches.flatMap(_(k))
  /** One batch as the source sees it: all keys, interleaved by ts. */
  def interleaved(b: Int): Seq[ObsRow] = batches(b).flatten.sortBy(r => (r.ts, r.streamId))
}

/** What `StreamingDrift.processGroup` did for one key, batch by batch. */
final class GroupReplay(val events: IndexedSeq[DriftEvent], val processNs: IndexedSeq[Long],
                        val bytes: IndexedSeq[Int], val deserNs: IndexedSeq[Long], val serNs: IndexedSeq[Long])

/** The streaming drift operator's parts, driven from outside. */
object StreamParts {

  val cfg: FiCSUMConfig = FiCSUMConfig()

  /** Runs `f` over `xs` on `threads` threads and returns the results in order. */
  def parallel[A, B](xs: Seq[A], threads: Int)(f: A => B): Seq[B] = {
    val pool = Executors.newFixedThreadPool(math.max(1, math.min(threads, xs.length)))
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try Await.result(Future.sequence(xs.map(x => Future(f(x)))), Duration.Inf)
    finally pool.shutdown()
  }

  /** The sequential engine the operator must match: one FiCSUM per key with
    * the operator's config and seed, stepped over the key's rows.
    */
  def sequential(rows: IndexedSeq[ObsRow], numFeatures: Int, numClasses: Int, seed: Long): IndexedSeq[DriftEvent] = {
    val engine = new FiCSUM("FiCSUM", numFeatures, numClasses, FingerprintSpec.full(numFeatures), cfg, seed)
    rows.map { r =>
      val before = engine.driftCount
      val (p, m) = engine.step(r.features.toArray, r.y)
      DriftEvent(r.streamId, r.ts, p, m, engine.driftCount > before)
    }
  }

  /** An iterator that notes when it is first asked for a row: in
    * processGroup that is right after the state was deserialized.
    */
  private final class Marked(rows: Iterator[ObsRow]) extends Iterator[ObsRow] {
    var firstAsk = 0L
    def hasNext: Boolean = { if (firstAsk == 0L) firstAsk = System.nanoTime(); rows.hasNext }
    def next(): ObsRow = rows.next()
  }

  /** Calls `StreamingDrift.processGroup` with Spark's `TestGroupState` on
    * one key's rows, one call per micro-batch, carrying the state bytes
    * across calls as the state store would. With `splitSerDe`, each batch
    * is followed by a call with no rows, whose time before its first row
    * request is deserialization and whose time after it is serialization.
    */
  def groupState(key: Int, kb: KeyedBatches, seed: Long, splitSerDe: Boolean): GroupReplay = {
    var bytes: Optional[Array[Byte]] = Optional.empty()
    val events = IndexedSeq.newBuilder[DriftEvent]
    val processNs, deserNs, serNs = IndexedSeq.newBuilder[Long]
    val sizes = IndexedSeq.newBuilder[Int]
    def call(rows: Seq[ObsRow]): (Seq[DriftEvent], Long, Long, Long) = {
      val state = TestGroupState.create[Array[Byte]](bytes, GroupStateTimeout.NoTimeout(), 0L, Optional.empty(), false)
      val it = new Marked(rows.iterator)
      val t0 = System.nanoTime()
      val out = StreamingDrift.processGroup(key, it, state, kb.numFeatures, kb.numClasses, cfg, seed).toList
      val t1 = System.nanoTime()
      bytes = Optional.of(state.get)
      (out, t1 - t0, it.firstAsk - t0, t1 - it.firstAsk)
    }
    kb.batches.foreach { b =>
      val (out, ns, _, _) = call(b(key))
      events ++= out; processNs += ns; sizes += bytes.get.length
      if (splitSerDe) {
        val (none, _, de, ser) = call(Nil)
        require(none.isEmpty, "processGroup emitted events for an empty batch")
        deserNs += de; serNs += ser
      }
    }
    new GroupReplay(events.result(), processNs.result(), sizes.result(), deserNs.result(), serNs.result())
  }

  /** One streaming query of the drift operator over `kb`, fed one
    * micro-batch at a time (one batch in flight).
    */
  final class QueryRun(val batchNs: IndexedSeq[Long], val progress: IndexedSeq[StreamingQueryProgress],
                       val events: Map[Int, IndexedSeq[DriftEvent]], val startNs: Long, val wallNs: Long)

  def query(spark: SparkSession, kb: KeyedBatches, seed: Long, name: String,
            checkpoint: java.nio.file.Path, batches: Int): QueryRun = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[ObsRow]
    val q = StreamingDrift.detect(spark, input.toDS(), kb.numFeatures, kb.numClasses, cfg, seed)
      .writeStream.format("memory").queryName(name).outputMode("append")
      .option("checkpointLocation", checkpoint.toString).start()
    val lat = IndexedSeq.newBuilder[Long]
    val t0 = System.nanoTime()
    try {
      (0 until batches).foreach { b =>
        val rows = kb.interleaved(b)
        val s = System.nanoTime()
        input.addData(rows)
        q.processAllAvailable()
        lat += System.nanoTime() - s
      }
    } finally q.stop()
    val wall = System.nanoTime() - t0
    val got = spark.table(name).as[DriftEvent].collect().toIndexedSeq
    spark.sql(s"drop view if exists $name")
    Dirs.deleteTree(checkpoint)
    new QueryRun(lat.result(), q.recentProgress.toIndexedSeq.filter(_.numInputRows > 0),
      got.groupBy(_.streamId).view.mapValues(_.sortBy(_.ts)).toMap, t0, wall)
  }
}

object Dirs {
  def deleteTree(p: java.nio.file.Path): Unit =
    if (java.nio.file.Files.exists(p)) {
      val s = java.nio.file.Files.walk(p)
      try s.sorted(java.util.Comparator.reverseOrder()).forEach(x => java.nio.file.Files.delete(x))
      finally s.close()
    }
}

package perfbench

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

/** In-memory span recorder. Each thread that records spans owns one
  * `Spans` buffer; buffers are merged and written out when the run ends.
  * Spans nest workload → cell / key / batch → step (or replayed call).
  */
final class Spans {
  val ids, parents, starts, ends = new LongBuf
  val names = mutable.ArrayBuffer.empty[String]
  def add(name: String, parent: Long, start: Long, end: Long): Long =
    add(Spans.newId(), name, parent, start, end)
  def add(id: Long, name: String, parent: Long, start: Long, end: Long): Long = {
    ids += id; parents += parent; starts += start; ends += end; names += name
    id
  }
}

object Spans {
  private val nextId = new AtomicLong(0)
  /** Id for a span whose children are recorded before it closes. */
  def newId(): Long = nextId.incrementAndGet()
}

final case class SpanRow(id: Long, parent: Long, name: String, start: Long, end: Long) {
  def dur: Long = end - start
}

object Trace {

  def rows(bufs: Seq[Spans]): IndexedSeq[SpanRow] =
    bufs.flatMap { b =>
      b.names.indices.map(i => SpanRow(b.ids(i), b.parents(i), b.names(i), b.starts(i), b.ends(i)))
    }.toIndexedSeq

  /** Self time of every span: its duration minus the part of its interval
    * covered by its children (children of parallel cells may overlap, so
    * their intervals are merged first).
    */
  def selfTimes(rows: IndexedSeq[SpanRow]): Map[Long, Long] = {
    val byParent = rows.groupBy(_.parent)
    rows.iterator.map { r =>
      val kids = byParent.getOrElse(r.id, IndexedSeq.empty).sortBy(_.start)
      var covered = 0L
      var curS = Long.MinValue; var curE = Long.MinValue
      for (k <- kids) {
        val s = math.max(k.start, r.start); val e = math.min(k.end, r.end)
        if (e > s) {
          if (s > curE) { if (curE > curS) covered += curE - curS; curS = s; curE = e }
          else curE = math.max(curE, e)
        }
      }
      if (curE > curS) covered += curE - curS
      r.id -> (r.dur - covered)
    }.toMap
  }

  /** Writes spans as tab-separated rows (id, parent, name, start_ns, end_ns). */
  def write(path: java.nio.file.Path, rows: IndexedSeq[SpanRow]): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val w = java.nio.file.Files.newBufferedWriter(path)
    try {
      w.write("id\tparent\tname\tstart_ns\tend_ns\n")
      rows.foreach(r => w.write(s"${r.id}\t${r.parent}\t${r.name}\t${r.start}\t${r.end}\n"))
    } finally w.close()
  }
}

package repro.sparkstream

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream, ObjectStreamClass}

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{FiCSUM, FiCSUMConfig, FingerprintSpec}

/** One drift-detection decision per observation, emitted by the stateful
  * streaming operator.
  */
final case class DriftEvent(streamId: Int, ts: Long, prediction: Int, modelId: Int, drift: Boolean)

/** The custom stateful operator of the repro hint: a Structured-Streaming
  * query whose state is a full serialized FiCSUM engine per stream key. Each
  * micro-batch feeds its rows (ordered by ts) through the engine — windows
  * are buffered, fingerprints constructed and compared against the active
  * concept fingerprint, ADWIN cuts on the similarity sequence, and drift +
  * model-selection decisions are emitted as an append stream.
  *
  * The engine is byte-serialized into the state store, so the exact same
  * algorithm object drives both the sequential evaluation and the
  * distributed dataflow (equivalence is asserted in tests).
  */
object StreamingDrift {

  /** The state store's codec: an object's Java-serialized bytes. */
  private[repro] def serialize(o: AnyRef): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(o)
    oos.close()
    bos.toByteArray
  }

  /** Classes resolve through the loader of the engine's own classes. The
    * default is the loader of the innermost non-JDK caller, which inside a
    * Scala collection's serialization proxy is scala-library's: under
    * spark-submit that is Spark's loader, which cannot see the application jar.
    */
  private[repro] def deserialize[A](bytes: Array[Byte]): A = {
    val loader = classOf[FiCSUM].getClassLoader
    val ois = new ObjectInputStream(new ByteArrayInputStream(bytes)) {
      override def resolveClass(desc: ObjectStreamClass): Class[_] =
        try Class.forName(desc.getName, false, loader)
        catch { case _: ClassNotFoundException => super.resolveClass(desc) }
    }
    val o = ois.readObject().asInstanceOf[A]
    ois.close()
    o
  }

  /** Pure update function — also used directly in unit tests. */
  def processGroup(
      streamId: Int,
      rows: Iterator[ObsRow],
      state: GroupState[Array[Byte]],
      numFeatures: Int,
      numClasses: Int,
      cfg: FiCSUMConfig,
      seed: Long,
  ): Iterator[DriftEvent] = {
    val engine = state.getOption
      .map(deserialize[FiCSUM])
      .getOrElse(new FiCSUM("FiCSUM", numFeatures, numClasses,
        FingerprintSpec.full(numFeatures), cfg, seed))
    val events = rows.toSeq.sortBy(_.ts).map { r =>
      val before = engine.driftCount
      val (pred, modelId) = engine.step(r.features.toArray, r.y)
      DriftEvent(streamId, r.ts, pred, modelId, engine.driftCount > before)
    }
    state.update(serialize(engine))
    events.iterator
  }

  /** Attach the stateful drift operator to a (possibly streaming) dataset of
    * observations. Works with `readStream` sources (MemoryStream in tests)
    * and batch datasets alike.
    */
  def detect(
      spark: SparkSession,
      rows: Dataset[ObsRow],
      numFeatures: Int,
      numClasses: Int,
      cfg: FiCSUMConfig = FiCSUMConfig(),
      seed: Long = 42,
  ): Dataset[DriftEvent] = {
    import spark.implicits._
    rows
      .groupByKey(_.streamId)
      .flatMapGroupsWithState[Array[Byte], DriftEvent](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (key: Int, it: Iterator[ObsRow], state: GroupState[Array[Byte]]) =>
          processGroup(key, it, state, numFeatures, numClasses, cfg, seed)
      }
  }
}

package perfbench

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
import java.security.MessageDigest

import repro.core.{FiCSUM, FiCSUMConfig}
import repro.eval.{Metrics, Probeable, ProbeResult, RunOutcome, StreamSystem}
import repro.stream.GeneratedStream

/** The fields of a `RunOutcome` that must not change between commits: all
  * but `runtimeMs`. Doubles compare by bit pattern (NaN equals NaN).
  */
final case class Outcome(dataset: String, system: String, seed: Long, kappa: Double,
                         cF1: Double, discrimination: Double, numModels: Int) {
  private def bits(d: Double) = java.lang.Double.doubleToLongBits(d)
  def key: String = s"$dataset/$system/seed=$seed"
  def sameAs(o: Outcome): Boolean =
    key == o.key && bits(kappa) == bits(o.kappa) && bits(cF1) == bits(o.cF1) &&
      bits(discrimination) == bits(o.discrimination) && numModels == o.numModels

  /** Short hash of the exact values, for comparing two commits' results. */
  def digest: String = {
    val s = s"$key|${bits(kappa)}|${bits(cF1)}|${bits(discrimination)}|$numModels"
    MessageDigest.getInstance("SHA-256").digest(s.getBytes("UTF-8")).take(8).map("%02x".format(_)).mkString
  }
  def line: String =
    f"cell $key%-28s kappa=$kappa%.6f cF1=$cF1%.6f disc=$discrimination%.6f models=$numModels digest=$digest"
}

object Outcome {
  def of(r: RunOutcome): Outcome =
    Outcome(r.dataset, r.system, r.seed, r.kappa, r.cF1, r.discrimination, r.numModels)

  /** The same outcome with κ nudged by one ulp: the self-test's deliberate corruption. */
  def corrupt(o: Outcome): Outcome = o.copy(kappa = math.nextUp(o.kappa))
}

/** Classes of FiCSUM steps, told apart from outside by its public counters. */
object StepClass {
  val Plain = 0; val Fingerprint = 1; val Detect = 2; val Drift = 3; val ScRefresh = 4
  val names: IndexedSeq[String] = IndexedSeq("plain", "fingerprint", "detect", "drift", "sc_refresh")
}

/** Everything measured about one cell (one system over one stream). */
final class CellRun(
    val system: StreamSystem,
    val outcome: Outcome,
    val stepNs: LongBuf,
    val probeNs: Long,
    val metricsNs: Long,
    val wallNs: Long,
    /** Per step class, the step times (traced runs only). */
    val classes: Array[LongBuf],
) {
  def steps: Int = stepNs.length
  def stateBytes: Int = Prequential.serializedSize(system)
}

/** The benchmark's own prequential loop. It follows `Runner.run` exactly
  * (test-then-train, a discrimination probe every `probeEvery`
  * observations after `probeWarmup`), but times each `step` call on its own
  * and the probes apart, so probe cost never enters step timing.
  */
object Prequential {

  val ProbeEvery = 100
  val ProbeWarmup = 400

  def serializedSize(o: AnyRef): Int = {
    val bos = new ByteArrayOutputStream()
    val oos = new ObjectOutputStream(bos)
    oos.writeObject(o)
    oos.close()
    bos.size()
  }

  /** Runs `system` over `stream`. When `spans` is non-null, records a cell
    * span under `parent` with one span per step (classed for FiCSUM) and
    * per probe.
    */
  def run(system: StreamSystem, stream: GeneratedStream, seed: Long,
          spans: Spans = null, parent: Long = 0L): CellRun = {
    val n = stream.length
    val preds = new Array[Int](n)
    val models = new Array[Int](n)
    val probes = Vector.newBuilder[(Int, ProbeResult)]
    val stepNs = new LongBuf
    val classes = Array.fill(StepClass.names.length)(new LongBuf)
    val traced = spans != null
    val cellId = if (traced) Spans.newId() else 0L
    val fic = system match { case f: FiCSUM => f; case _ => null }
    val cfg = FiCSUMConfig()
    val full = cfg.bufferLen + cfg.windowSize
    var fill = 0
    var probeNs = 0L
    val probeable = system match { case p: Probeable => p; case _ => null }

    val t0 = System.nanoTime()
    var i = 0
    while (i < n) {
      val o = stream.obs(i)
      if (traced && fic != null) {
        val fp = fic.fingerprintUpdates; val det = fic.detectorUpdates; val dr = fic.driftCount
        val s = System.nanoTime()
        val (p, m) = system.step(o.x, o.y)
        val e = System.nanoTime()
        preds(i) = p; models(i) = m
        stepNs += e - s
        val drifted = fic.driftCount != dr
        fill = if (drifted) 0 else math.min(fill + 1, full)
        val cls =
          if (drifted) StepClass.Drift
          else if (fic.detectorUpdates != det) StepClass.Detect
          else if (fic.fingerprintUpdates != fp) StepClass.Fingerprint
          else if (fill == full && (i + 1) % cfg.repoGap == 0 && fic.repositorySize > 1) StepClass.ScRefresh
          else StepClass.Plain
        classes(cls) += e - s
        spans.add("step:" + StepClass.names(cls), cellId, s, e)
      } else {
        val s = System.nanoTime()
        val (p, m) = system.step(o.x, o.y)
        val e = System.nanoTime()
        preds(i) = p; models(i) = m
        stepNs += e - s
        if (traced) spans.add("step", cellId, s, e)
      }
      if (probeable != null && i >= ProbeWarmup && i % ProbeEvery == 0) {
        val s = System.nanoTime()
        probeable.probe().foreach(r => probes += ((stream.conceptIds(i), r)))
        val e = System.nanoTime()
        probeNs += e - s
        if (traced) spans.add("probe", cellId, s, e)
      }
      i += 1
    }

    val m0 = System.nanoTime()
    val predSeq = preds.toIndexedSeq
    val modelSeq = models.toIndexedSeq
    val truthSeq = stream.obs.map(_.y)
    val kappa = Metrics.kappa(predSeq, truthSeq, stream.numClasses)
    val cf1 = Metrics.cF1(modelSeq, stream.conceptIds)
    val best = Metrics.bestTrackingModel(modelSeq, stream.conceptIds)
    val disc = Metrics.discrimination(probes.result(), best).getOrElse(Double.NaN)
    val outcome = Outcome(stream.name, system.name, seed, kappa, cf1, disc, modelSeq.distinct.length)
    val t1 = System.nanoTime()
    if (traced) {
      spans.add("metrics", cellId, m0, t1)
      spans.add(cellId, s"cell:${stream.name}/${system.name}", parent, t0, t1)
    }
    new CellRun(system, outcome, stepNs, probeNs, t1 - m0, t1 - t0, classes)
  }
}

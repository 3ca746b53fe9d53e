package repro.eval

import repro.stream.GeneratedStream

/** Outcome of one (dataset, system, seed) experiment cell. */
final case class RunOutcome(
    dataset: String,
    system: String,
    seed: Long,
    kappa: Double,
    cF1: Double,
    /** NaN when the system cannot be probed (non-fingerprint baselines). */
    discrimination: Double,
    runtimeMs: Long,
    numModels: Int,
) extends Serializable

/** Drives one system over one materialized stream with the prequential
  * (test-then-train) protocol, collecting predictions, active model ids and
  * periodic discrimination probes. `runtimeMs` times only the `step` calls,
  * so probing systems are not charged for the probes.
  */
object Runner {

  /** Observations between discrimination probes. */
  private val ProbeEvery = 100
  /** Index of the first probe. */
  private val ProbeWarmup = 400

  def run(system: StreamSystem, stream: GeneratedStream, seed: Long): RunOutcome = {
    val n = stream.length
    val preds = new Array[Int](n)
    val models = new Array[Int](n)
    val probes = Vector.newBuilder[(Int, ProbeResult)]
    var stepNs = 0L
    var i = 0
    while (i < n) {
      val o = stream.obs(i)
      val t0 = System.nanoTime()
      val (p, m) = system.step(o.x, o.y)
      stepNs += System.nanoTime() - t0
      preds(i) = p
      models(i) = m
      if (i >= ProbeWarmup && i % ProbeEvery == 0) {
        system match {
          case pr: Probeable => pr.probe().foreach(r => probes += ((stream.conceptIds(i), r)))
          case _             => ()
        }
      }
      i += 1
    }
    val runtimeMs = stepNs / 1000000

    val predSeq = preds.toIndexedSeq
    val modelSeq = models.toIndexedSeq
    val truthSeq = stream.obs.map(_.y)
    val kappa = Metrics.kappa(predSeq, truthSeq, stream.numClasses)
    val cf1 = Metrics.cF1(modelSeq, stream.conceptIds)
    val best = Metrics.bestTrackingModel(modelSeq, stream.conceptIds)
    val disc = Metrics.discrimination(probes.result(), best).getOrElse(Double.NaN)

    RunOutcome(stream.name, system.name, seed, kappa, cf1, disc, runtimeMs,
      modelSeq.distinct.length)
  }
}

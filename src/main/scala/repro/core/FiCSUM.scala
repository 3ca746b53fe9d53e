package repro.core

import scala.collection.mutable
import repro.classifier.{HoeffdingTree, HoeffdingTreeConfig}
import repro.eval.{Metrics, Probeable, ProbeResult, StreamSystem}

/** FiCSUM parameters (paper §VI-2). Window/gap defaults are the paper's
  * tuned values scaled to this reproduction's shorter segments: w=50
  * (paper 75), P_S=50 (paper 25). The settings no caller varies are
  * constants of the `FiCSUM` companion object.
  */
final case class FiCSUMConfig(
    windowSize: Int = 50,
    repoGap: Int = 50,
    /** Larger grace period than the global default: FiCSUM's plasticity
      * reset fires on tree growth (§IV), and too-frequent splits would reset
      * the supervised fingerprint dims before ADWIN can cut on the
      * similarity dip.
      */
    treeConfig: HoeffdingTreeConfig = HoeffdingTreeConfig(gracePeriod = 100),
) extends Serializable {
  def bufferLen: Int = math.max(1, (windowSize * FiCSUM.BufferRatio).round.toInt)
}

/** The FiCSUM framework (paper Algorithm 1): fingerprint-based concept
  * drift detection and model selection over a repository of
  * (fingerprint, classifier, normal-similarity) concept representations.
  *
  * The fingerprint layout is given by `spec`; restricting it yields the
  * paper's ER / S-MI / U-MI / single-function evaluation variants.
  */
final class FiCSUM(
    val name: String,
    numFeatures: Int,
    numClasses: Int,
    val spec: FingerprintSpec,
    cfg: FiCSUMConfig = FiCSUMConfig(),
    seed: Long = 42,
) extends StreamSystem with Probeable {
  import FiCSUM._

  private val w = cfg.windowSize
  private val b = cfg.bufferLen

  private val buf = new mutable.ArrayDeque[Labeled]()
  private var i   = 0L

  private val normalizer = new Normalizer(spec.dim)
  private var detector   = new SimilarityDetector

  // Scratch and caches of this engine alone (the grid steps engines as
  // parallel tasks in one JVM); transient, so state bytes are unchanged.
  @transient private lazy val ws = new Fingerprinter.Workspace(spec)
  @transient private lazy val dynamicWeights = new DynamicWeights(normalizer)

  private var nextId = 0
  private val repo   = mutable.ArrayBuffer.empty[ConceptState]

  private def newConcept(): ConceptState = {
    val c = new ConceptState(nextId, spec.dim,
      new HoeffdingTree(numFeatures, numClasses, cfg.treeConfig, seed = seed + nextId))
    nextId += 1
    repo += c
    c
  }

  private var active: ConceptState = newConcept()

  private var lastWeights: Array[Double] = Array.fill(spec.dim)(1.0)
  /** The concept created at the last drift, until its second check. */
  private var fresh: Option[ConceptState] = None

  private var drifts = 0
  private var fingerprints = 0L
  private var detectorAdds = 0L

  /** Diagnostics: drifts, fingerprint updates and detector updates so far. */
  def driftCount: Int = drifts
  def fingerprintUpdates: Long = fingerprints
  def detectorUpdates: Long = detectorAdds

  /** Repository size (diagnostics). */
  def repositorySize: Int = repo.length

  // ------------------------------------------------------------- internals

  private def tailWindow: collection.IndexedSeq[Labeled] = buf.takeRight(w)

  /** The w-row windows of `rows` at `starts` as each of `concepts` would see
    * them (paper's F_AS / F_SC): the workspace has its classifier label the
    * rows (`Fingerprinter.Workspace.label`), one leaf evaluation per row for
    * the prediction and, if it attributes rows, the attributions. The rows
    * are loaded once, so the workspace computes the windows' classifier-free
    * dims for the first concept and copies them for the others. Raw: reads
    * neither the normalizer nor the weights. The labelling runs on the
    * calling thread (a leaf's naive-Bayes evaluation writes its cache); only
    * the kernel calls of `Fingerprinter.make` may run on the common pool.
    */
  private[core] def foreignFingerprints(rows: collection.IndexedSeq[Labeled], starts: Seq[Int],
      concepts: collection.Seq[ConceptState]): collection.Seq[Seq[Array[Double]]] = {
    ws.load(rows)
    concepts.map(s => Fingerprinter.make(ws.label(s.classifier, relabel = true), starts, w))
  }

  /** The stored concepts other than the active one. */
  private[core] def inactive: collection.Seq[ConceptState] = repo.filter(s => !(s eq active))

  private def simTo(s: ConceptState, raw: Array[Double], weights: Array[Double]): Double =
    Similarity.sim(s.stats.scaledMean(normalizer), normalizer.scale(raw), weights)

  private def selectModel(exclude: Option[ConceptState]): Option[ConceptState] = {
    // Average the tested similarity over staggered sub-windows of the
    // buffer to cut single-window sampling noise before the band test.
    val offsets = Seq(0, (buf.length - w) / 2, buf.length - w).distinct
    // Every stored concept left the active slot armed, so it has σ and samples.
    val tested = repo.filter(s => !exclude.contains(s))
    val scored = tested.zip(foreignFingerprints(buf, offsets, tested)).map { case (s, fps) =>
      // Per-candidate weights (w_σ is the *candidate's* per-dim scale) and
      // a self-similarity band recomputed from retained sample
      // fingerprints under the current normalizer/weights (§IV).
      val weights = dynamicWeights.compute(s, repo)
      val sims = fps.map(fp => simTo(s, fp, weights))
      val selfSims = s.sampleFps.toSeq.map(fp => simTo(s, fp, weights))
      (s, Metrics.mean(sims), Metrics.mean(selfSims), Metrics.stdDev(selfSims))
    }
    // Two-sided acceptance (paper: |Sim − μ_s| ≤ 2σ_s, with a floor), plus
    // a self-coherence floor: a concept whose own sample fingerprints do
    // not resemble its mean representation (contaminated creation) cannot
    // vouch for any window and is never re-selected.
    val candidates = scored.filter { case (_, sim, mu, sd) =>
      mu >= 0.2 && math.abs(sim - mu) <= math.max(2 * sd, AcceptMinBand)
    }
    // Paper: "recurrence of the accepted M with highest Sim_WM".
    if (candidates.isEmpty) None
    else Some(candidates.maxBy { case (_, sim, _, _) => sim }._1)
  }

  private def onDrift(): Unit = {
    detector = new SimilarityDetector
    val chosen = selectModel(exclude = None)
    // The recent window still matches the active concept's normal band: a
    // detector false alarm. Keep the representation and buffers; only the
    // detector restarts, so false alarms are nearly free.
    if (chosen.exists(_ eq active)) return
    drifts += 1
    chosen match {
      case Some(s) =>
        active = s
        active.markActivated()
      case None =>
        active = newConcept()
        fresh = Some(active)
    }
    buf.clear()
  }

  // ------------------------------------------------------------------ step

  def step(x: Array[Double], y: Int): (Int, Int) = {
    val l = active.classifier.predict(x)
    active.classifier.train(x, y)
    buf.append(Labeled(x, y, l))
    if (buf.length > b + w) buf.removeHead()
    i += 1

    val full = buf.length == b + w
    if (full && i % FingerprintGap == 0) {
      fingerprints += 1
      // Each buffer row is loaded and attributed once; A is the tail
      // window, B the head, built in one call so their kernel calls can
      // share the idle cores.
      val fps = Fingerprinter.make(ws.load(buf).label(active.classifier, relabel = false), Seq(b, 0), w)
      val fA = fps(0)
      val fB = fps(1)
      normalizer.update(fA)
      normalizer.update(fB)
      // Plasticity (§IV): a split is suspicious while the similarity sits
      // below the concept's normal band; every handled split holds breaches.
      if (active.onSplit(spec.classifierDependentDims, detector.suspicious(active.simStats))) detector.holdBreaches()
      val weights = dynamicWeights.compute(active, repo)
      lastWeights = weights

      // Bounded incorporation, then the normal-similarity record
      // (freeze-after-budget, DESIGN.md §4).
      active.absorb(fB, simTo(active, _, weights))

      // Detection runs only against a *frozen* reference with a complete
      // normal-similarity record: during the open phase both the classifier
      // and the concept fingerprint are still maturing, which puts a strong
      // upward trend on the similarity that would dilute ADWIN's change
      // statistics — and arming before the sample fingerprints are
      // collected would leave early (false) detections without a usable
      // recurrence band, spawning garbage concepts.
      if (active.frozen && active.stats.sigmaDefined && active.simStats.weight >= 2) {
        detectorAdds += 1
        // Detection is armed only once the normal-similarity record and
        // sample fingerprints are complete; before that ADWIN just warms up
        // on stationary values so arming starts from a real baseline
        // instead of cutting on its first few (still-settling) values.
        if (detector.add(simTo(active, fA, weights), active.simStats) && active.armed) onDrift()
      }
    }

    if (buf.length == b + w && i % cfg.repoGap == 0 && repo.length > 1) {
      val others = inactive
      for ((s, fps) <- others.zip(foreignFingerprints(tailWindow, Seq(0), others)); fSC <- fps) {
        normalizer.update(fSC)
        s.scStats.add(fSC)
      }
    }

    // Second check (paper Alg. 1): once A is fully drawn from the emerging
    // segment, a found recurrence replaces the freshly created concept. The
    // drift cleared the buffer and detection needs b + w rows, so no drift
    // fires before the buffer holds w rows again, and `fresh` is still active.
    if (buf.length == w) fresh.foreach { f =>
      selectModel(exclude = Some(f)).foreach { s => repo -= f; active = s }
      fresh = None
    }

    (l, active.id)
  }

  // ----------------------------------------------------------------- probe

  def probe(): Option[ProbeResult] = {
    if (buf.length < w) return None
    val usable = repo.filter(_.stats.sigmaDefined)
    if (usable.length < 2) return None
    val sims = usable.zip(foreignFingerprints(tailWindow, Seq(0), usable)).map { case (s, fps) =>
      s.id -> simTo(s, fps.head, lastWeights)
    }.toMap
    val sigmas = usable.map(s => s.id -> s.simStats.stdDev).toMap
    Some(ProbeResult(sims, sigmas))
  }
}

object FiCSUM {
  /** Buffer length as a share of the window (paper: 0.25). */
  private[core] val BufferRatio = 0.25
  /** P_C: steps between fingerprints (as in the paper). */
  private val FingerprintGap = 3
  /** Floor on the ±2σ acceptance band so freshly-created concepts with
    * near-zero σ are not unmatchable (stands in for paper §IV's
    * similarity-record transform).
    */
  private val AcceptMinBand = 0.15
}

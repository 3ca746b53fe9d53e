package repro.core

import java.util.concurrent.{ForkJoinPool, RecursiveAction}
import java.util.concurrent.atomic.AtomicBoolean
import org.apache.spark.TaskContext
import repro.classifier.HoeffdingTree
import repro.meta.{MetaFunction, SeqStats}

/** One labelled observation as seen by the fingerprinting pipeline:
  * features, ground-truth label, predicted label (paper's triple
  * ⟨X_i, y_i, l_i⟩).
  */
final case class Labeled(x: Array[Double], y: Int, l: Int) extends Serializable

/** A behaviour source (paper §III-A): a univariate view of a window.
  * The first d sources are the input features; four supervised sources
  * describe labels, predictions, errors and distances between errors.
  */
sealed trait Source extends Serializable {
  def name: String

  /** Features and labels: the same whichever classifier labels the window. */
  def classifierFree: Boolean = this match {
    case FeatureSource(_) | LabelSource => true
    case _                              => false
  }
}
final case class FeatureSource(j: Int) extends Source { def name = s"x$j" }
case object LabelSource extends Source { def name = "y" }
case object PredSource extends Source { def name = "l" }
case object ErrorSource extends Source { def name = "err" }
case object ErrorDistSource extends Source { def name = "errdist" }

/** Which sources × functions make up a fingerprint. Variants (ER, S-MI,
  * U-MI, single-function — paper §VI) are restrictions of the full spec:
  * fewer sources, or fewer slots of the same per-source kernel pass.
  */
final case class FingerprintSpec(
    numFeatures: Int,
    sources: IndexedSeq[Source],
    functions: IndexedSeq[MetaFunction],
    includeShapley: Boolean,
) extends Serializable {

  /** Dimension names: sources × functions, then per-feature Shapley. */
  val dimNames: IndexedSeq[String] = {
    val seq = for (s <- sources; f <- functions) yield s"${s.name}:${f.name}"
    val shap = if (includeShapley) (0 until numFeatures).map(j => s"shapley:x$j") else IndexedSeq.empty
    seq ++ shap
  }

  def dim: Int = dimNames.length

  /** Kernel slots the functions select ([[SeqStats.describe]] bit mask). */
  val slots: Int = functions.foldLeft(0)((m, f) => m | (1 << f.slot))

  /** Indices of dimensions that depend on the classifier's predictions —
    * these are reset when the classifier changes structurally (paper §IV).
    */
  val classifierDependentDims: IndexedSeq[Int] = {
    val perSource = for {
      (s, si) <- sources.zipWithIndex
      fi <- functions.indices
      if !s.classifierFree
    } yield si * functions.length + fi
    val shap =
      if (includeShapley) (sources.length * functions.length until dim) else IndexedSeq.empty
    perSource ++ shap
  }
}

object FingerprintSpec {
  import repro.meta.MetaFunctions

  private def featureSources(d: Int): IndexedSeq[Source] = (0 until d).map(FeatureSource(_))

  private def supervisedSources: IndexedSeq[Source] =
    IndexedSeq(LabelSource, PredSource, ErrorSource, ErrorDistSource)

  private def allSources(d: Int): IndexedSeq[Source] = featureSources(d) ++ supervisedSources

  /** Full FiCSUM fingerprint: all sources × 12 functions + d Shapley dims. */
  def full(d: Int): FingerprintSpec =
    FingerprintSpec(d, allSources(d), MetaFunctions.all, includeShapley = true)

  /** S-MI variant: supervised behaviour sources only. */
  def supervised(d: Int): FingerprintSpec =
    FingerprintSpec(d, supervisedSources, MetaFunctions.all, includeShapley = false)

  /** U-MI variant: feature behaviour sources only. */
  def unsupervised(d: Int): FingerprintSpec =
    FingerprintSpec(d, featureSources(d), MetaFunctions.all, includeShapley = false)

  /** ER variant: a single error-rate meta-information feature. */
  def errorRate(d: Int): FingerprintSpec =
    FingerprintSpec(d, IndexedSeq(ErrorSource), IndexedSeq(MetaFunctions.Mean), includeShapley = false)

  /** Table V single-function variants (Shapley = the d importance dims). */
  def singleFunction(d: Int, fns: IndexedSeq[MetaFunction]): FingerprintSpec =
    FingerprintSpec(d, allSources(d), fns, includeShapley = false)

  def shapleyOnly(d: Int): FingerprintSpec =
    FingerprintSpec(d, IndexedSeq.empty, IndexedSeq.empty, includeShapley = true)
}

/** Builds raw fingerprint vectors from windows (paper Fig. 2). */
object Fingerprinter {

  /** Fewest computed sources a chunk of one call gets when the call fans
    * out: with the MI and IMF slots a source costs ~7 µs per window, so a
    * chunk of 8 sources over two windows outweighs waking a pool worker.
    */
  private[core] val MinChunkSources = 8

  /** What one engine fingerprints from: a block of rows as columns (the
    * features the spec's sources read, y and l, each row i at index i), the
    * rows' path attributions under the last tree that labelled them, and the
    * kernel's scratch. The engine loads its buffer once per fingerprint step,
    * has each tree label it ([[label]]) and reads every window of it from
    * here. Only the engine's thread loads and labels the rows; the kernel
    * calls of one call only read them, and each chunk of the call has its
    * own [[Scratch]], so one workspace serves one call at a time with one
    * scratch per chunk. The engine holds it `@transient`, so neither the
    * attributions nor any scratch reach its state bytes.
    */
  final class Workspace(val spec: FingerprintSpec) {
    private val features = spec.sources.collect { case FeatureSource(j) => j }.distinct.toArray
    private[core] val x = new Array[Array[Double]](spec.numFeatures)
    private[core] var y: Array[Double] = Array.emptyDoubleArray
    private[core] var l: Array[Double] = Array.emptyDoubleArray
    private var rows: collection.IndexedSeq[Labeled] = IndexedSeq.empty
    /** Row i's path attributions, read only while `attributed`. */
    private[core] var attr = new Array[Array[Double]](0)
    private[core] var attributed = false
    private val allSources = spec.sources.indices.toArray
    private val dependentSources = allSources.filterNot(spec.sources(_).classifierFree)
    private var scratch: Array[Scratch] = Array(new Scratch)

    /** Indices of the sources a call computes: every source, or only the
      * classifier-dependent ones when the classifier-free dims are shared.
      */
    private[core] def computed(shared: Boolean): Array[Int] = if (shared) dependentSources else allSources

    /** One scratch per chunk of a k-chunk call; chunk 0's is the serial loop's. */
    private[core] def scratch(k: Int): Array[Scratch] = {
      if (scratch.length < k) scratch = Array.tabulate(k)(c => if (c < scratch.length) scratch(c) else new Scratch)
      scratch
    }

    /** Copies `rows` into the columns, with no attributions. */
    def load(rows: collection.IndexedSeq[Labeled]): this.type = {
      val n = rows.length
      if (y.length < n) {
        y = new Array[Double](n); l = new Array[Double](n)
        features.foreach(j => x(j) = new Array[Double](n))
      }
      var i = 0
      while (i < n) {
        val o = rows(i)
        y(i) = o.y
        l(i) = o.l
        var f = 0
        while (f < features.length) { val j = features(f); x(j)(i) = o.x(j); f += 1 }
        i += 1
      }
      this.rows = rows
      attributed = false
      this
    }

    /** Evaluates each row of the last [[load]], unchanged since, once under
      * `tree`: its path attributions replace the rows' when `tree` attributes
      * rows ([[attributes]]; else the rows have none), and with `relabel` its
      * prediction replaces the row's in `l` (a window as `tree` would label
      * it). With neither to do, evaluates nothing.
      */
    def label(tree: HoeffdingTree, relabel: Boolean): this.type = {
      attributed = attributes(spec, tree)
      if (!attributed && !relabel) return this
      if (attributed && attr.length < rows.length) attr = Array.fill(rows.length)(new Array[Double](spec.numFeatures))
      var i = 0
      while (i < rows.length) {
        val p =
          if (attributed) { java.util.Arrays.fill(attr(i), 0.0); tree.explain(rows(i).x, attr(i)) }
          else tree.predict(rows(i).x)
        if (relabel) l(i) = p
        i += 1
      }
      this
    }
  }

  /** The scratch of one chunk's kernel calls: the kernel's workspace and
    * the error and error-distance sources of one window.
    */
  private[core] final class Scratch {
    val kernel = new SeqStats.Workspace
    private var buf: Array[Double] = Array.emptyDoubleArray
    def seq(w: Int): Array[Double] = { if (buf.length < w) buf = new Array[Double](w); buf }
  }

  /** Kernel outputs of source `s` over rows `from until from + w` of `ws`. */
  private def describe(s: Source, ws: Workspace, sc: Scratch, from: Int, w: Int, slots: Int): Array[Double] = s match {
    case FeatureSource(j) => SeqStats.describe(ws.x(j), from, w, slots, sc.kernel)
    case LabelSource      => SeqStats.describe(ws.y, from, w, slots, sc.kernel)
    case PredSource       => SeqStats.describe(ws.l, from, w, slots, sc.kernel)
    case ErrorSource =>
      val seq = sc.seq(w)
      var i = 0
      while (i < w) { seq(i) = if (ws.y(from + i) != ws.l(from + i)) 1.0 else 0.0; i += 1 }
      SeqStats.describe(seq, 0, w, slots, sc.kernel)
    case ErrorDistSource =>
      val seq = sc.seq(w)
      var errors = 0
      var last = 0
      var i = 0
      while (i < w) {
        if (ws.y(from + i) != ws.l(from + i)) {
          if (errors > 0) seq(errors - 1) = (i - last).toDouble
          errors += 1
          last = i
        }
        i += 1
      }
      // Higher-order stats of a handful of gaps are pure noise; below 5 gaps
      // represent the source as the constant "max distance" sequence so its
      // dims sit still instead of spiking randomly in stationary phases.
      if (errors < 6) { seq(0) = w.toDouble; SeqStats.describe(seq, 0, 1, slots, sc.kernel) }
      else SeqStats.describe(seq, 0, errors - 1, slots, sc.kernel)
  }

  /** Whether `tree` attributes rows under `spec`: only with Shapley dims, and
    * only once it has split. A root leaf attributes +0.0 to every feature,
    * which is what [[make]] puts in the Shapley dims for no attributions.
    */
  private[core] def attributes(spec: FingerprintSpec, tree: HoeffdingTree): Boolean =
    spec.includeShapley && tree.splitEvents > 0

  /** Raw (unnormalized) fingerprint of `window`. `classifier` supplies the
    * Shapley (path-attribution) dimensions when the spec includes them.
    */
  def make(
      spec: FingerprintSpec,
      window: IndexedSeq[Labeled],
      classifier: Option[HoeffdingTree],
  ): Array[Double] = {
    val ws = new Workspace(spec).load(window)
    classifier.foreach(ws.label(_, relabel = false))
    make(ws, Seq(0), window.length, null).head
  }

  /** How many chunks a call that computes `computed` sources splits its
    * kernel calls into: one per common-pool worker plus the caller, with at
    * least [[MinChunkSources]] sources each. One chunk, the serial loop, when
    * the spec selects neither the MI nor the IMF slots (the other slots cost
    * too little per call to pay for a fork), and inside a Spark task: Spark
    * already runs one task per core (the grid's cells, the streaming
    * operator's keys), and fanning out there made the 785-cell grid's wall
    * time 11–28 % longer.
    */
  private[core] def chunks(spec: FingerprintSpec, computed: Int): Int =
    if ((spec.slots & SeqStats.HistogramSlots) == 0 || TaskContext.get() != null) 1
    else math.min(ForkJoinPool.getCommonPoolParallelism + 1, computed / MinChunkSources)

  /** Raw fingerprints, under `ws.spec`, of the w-row windows at `starts` of
    * the rows loaded in `ws`, one per start; the Shapley dims average the
    * rows' attributions in `ws` (+0.0 with none). `shared`, if not null,
    * holds one fingerprint per start of the same rows under another
    * classifier: the classifier-free sources (input features and labels) do
    * not depend on which classifier labels the rows, so their dims are
    * copied from it instead of computed.
    *
    * The kernel calls, one per computed source and window, are pure
    * functions of the loaded columns; they are split by source into
    * [[chunks]] contiguous chunks. The calling thread runs the first, forks
    * the others to the common pool and runs each that no worker has started
    * yet, so under a busy pool the call is the serial loop. The Shapley dims
    * are summed on the calling thread.
    */
  def make(
      ws: Workspace,
      starts: collection.Seq[Int],
      w: Int,
      shared: collection.Seq[Array[Double]],
  ): IndexedSeq[Array[Double]] =
    make(ws, starts, w, shared, chunks(ws.spec, ws.computed(shared != null).length))

  /** [[make]] split into `chunks` chunks (at most one per computed source). */
  private[core] def make(
      ws: Workspace,
      starts: collection.Seq[Int],
      w: Int,
      shared: collection.Seq[Array[Double]],
      chunks: Int,
  ): IndexedSeq[Array[Double]] = {
    require(w > 0, "cannot fingerprint an empty window")
    val spec = ws.spec
    val from = starts.toArray
    val fps = IndexedSeq.fill(from.length)(new Array[Double](spec.dim))
    val nf = spec.functions.length
    val sources = ws.computed(shared != null)
    if (shared != null)
      for (si <- spec.sources.indices if spec.sources(si).classifierFree; j <- from.indices)
        System.arraycopy(shared(j), si * nf, fps(j), si * nf, nf)

    // Chunk c computes sources(⌊n·c/k⌋ until ⌊n·(c+1)/k⌋) into their dims
    // of every window; no two chunks write the same dim.
    def run(sc: Scratch, c: Int, k: Int): Unit = {
      var i = (sources.length.toLong * c / k).toInt
      val end = (sources.length.toLong * (c + 1) / k).toInt
      while (i < end) {
        val si = sources(i)
        var j = 0
        while (j < from.length) {
          val vals = describe(spec.sources(si), ws, sc, from(j), w, spec.slots)
          val out = fps(j)
          var f = 0
          while (f < nf) { out(si * nf + f) = vals(spec.functions(f).slot); f += 1 }
          j += 1
        }
        i += 1
      }
    }
    val k = math.min(chunks, sources.length)
    if (k <= 1) run(ws.scratch(1)(0), 0, 1)
    else {
      val sc = ws.scratch(k)
      val forked = Array.tabulate(k - 1) { c => val t = new ChunkTask(() => run(sc(c + 1), c + 1, k)); t.fork(); t }
      run(sc(0), 0, k)
      forked.foreach(t => if (!t.tryRun()) t.join())
    }

    // Each Shapley dim: +0.0 plus the window's rows in ascending order, / w.
    if (spec.includeShapley)
      for (j <- from.indices; f <- 0 until spec.numFeatures) {
        var acc = 0.0
        var i = from(j)
        while (ws.attributed && i < from(j) + w) { acc += ws.attr(i)(f); i += 1 }
        fps(j)(spec.sources.length * nf + f) = acc / w
      }
    fps
  }

  /** One chunk of a call, run by whichever of the caller and a pool worker
    * claims it first; the other finds it claimed and does nothing.
    */
  private final class ChunkTask(body: () => Unit) extends RecursiveAction {
    private val claimed = new AtomicBoolean
    /** Runs the chunk unless it is claimed; whether this call ran it. */
    def tryRun(): Boolean = claimed.compareAndSet(false, true) && { body(); true }
    protected def compute(): Unit = { tryRun(); () }
  }
}

package perfbench

import scala.collection.mutable

import repro.classifier.HoeffdingTree
import repro.core._
import repro.detector.Adwin
import repro.eval.Systems
import repro.meta.MetaFunctions
import repro.sparkstream.{ObsRow, WindowFingerprints}
import repro.stream.GeneratedStream

/** Per-layer numbers from replayed public calls on the workload's own
  * data: windows of w = 50 taken every 3 observations from the workload's
  * first stream, labelled by a prequential Hoeffding tree, as FiCSUM forms
  * them. Each figure is the mean time of one call.
  */
object Replay {

  private val W = 50
  private val Gap = 3

  /** The behaviour sources of a window, as `Fingerprinter` derives them. */
  def sources(win: IndexedSeq[Labeled], d: Int): IndexedSeq[Array[Double]] = {
    val feats = (0 until d).map(j => win.map(_.x(j)).toArray)
    val errIdx = win.indices.filter(i => win(i).y != win(i).l)
    val errDist =
      if (errIdx.length < 6) Array(win.length.toDouble)
      else errIdx.sliding(2).map(p => (p(1) - p(0)).toDouble).toArray
    feats ++ IndexedSeq(
      win.map(_.y.toDouble).toArray, win.map(_.l.toDouble).toArray,
      win.map(o => if (o.y != o.l) 1.0 else 0.0).toArray, errDist)
  }

  /** Mean ns per call of `f` over `xs`, repeated `reps` times. */
  private def perCall[A](xs: Seq[A], reps: Int = 1)(f: A => Double): Double = {
    var sink = 0.0
    val t0 = System.nanoTime()
    var r = 0
    while (r < reps) { xs.foreach(x => sink += f(x)); r += 1 }
    val ns = (System.nanoTime() - t0).toDouble / (xs.length * reps)
    if (sink == 42.4242) println(sink) // keeps the calls from being optimised away
    ns
  }

  def run(ctx: Ctx, streams: Seq[GeneratedStream], withStream: Boolean = true): Unit = {
    val r = ctx.report
    val s = streams.head
    val d = s.numFeatures
    val n = math.min(s.length, if (ctx.tiny) 600 else 1500)
    val spans = ctx.newSpans()
    val rid = Spans.newId()
    val t0 = System.nanoTime()
    def span[A](name: String)(f: => A): A = {
      val a = System.nanoTime(); val v = f; spans.add(name, rid, a, System.nanoTime()); v
    }

    // Prequential tree: labels the windows and gives predict/train cost.
    val tree = new HoeffdingTree(d, s.numClasses, FiCSUMConfig().treeConfig, seed = ctx.seed)
    val labelled = mutable.ArrayBuffer.empty[Labeled]
    val windows = mutable.ArrayBuffer.empty[IndexedSeq[Labeled]]
    var predictNs, trainNs = 0L
    span("replay:classifier") {
      (0 until n).foreach { i =>
        val o = s.obs(i)
        val a = System.nanoTime(); val l = tree.predict(o.x)
        val b = System.nanoTime(); tree.train(o.x, o.y)
        val c = System.nanoTime()
        predictNs += b - a; trainNs += c - b
        labelled += Labeled(o.x, o.y, l)
        if (labelled.length >= W && (i + 1) % Gap == 0) windows += labelled.takeRight(W).toIndexedSeq
      }
    }
    r.put("classifier.predict_us", predictNs / 1e3 / n, "us")
    r.put("classifier.train_us", trainNs / 1e3 / n, "us")
    r.put("classifier.splits", tree.splitEvents.toDouble, "count")

    val seqs = windows.toSeq.flatMap(sources(_, d))
    val metaNs = span("replay:meta") {
      MetaFunctions.all.map { fn =>
        val ns = perCall(seqs)(fn(_))
        r.put(s"meta.${fn.name}_us", ns / 1e3, "us")
        fn.name -> ns
      }.toMap
    }
    r.put("meta.emd_share", (metaNs("imf1") + metaNs("imf2")) / metaNs.values.sum, "ratio")

    val spec = FingerprintSpec.full(d)
    val fps = windows.map(w => Fingerprinter.make(spec, w, Some(tree))).toIndexedSeq
    span("replay:fingerprint") {
      r.put("core.fingerprint_us", perCall(windows.toSeq)(w => Fingerprinter.make(spec, w, Some(tree))(0)) / 1e3, "us")
      r.put("classifier.contrib_us", perCall(windows.toSeq.flatten)(o => tree.featureContributions(o.x)(0)) / 1e3, "us")
    }

    val norm = new Normalizer(spec.dim)
    fps.foreach(norm.update)
    val scaled = fps.map(norm.scale)
    val ones = Array.fill(spec.dim)(1.0)
    span("replay:similarity") {
      r.put("core.sim_us", perCall(scaled.indices.drop(1), reps = 5)(i => Similarity.sim(scaled(i - 1), scaled(i), ones)) / 1e3, "us")
    }

    // Repositories of 1 and 8 concepts filled from the same fingerprints.
    val states = (0 until 8).map(c => new ConceptState(c, spec.dim, new HoeffdingTree(d, s.numClasses, seed = c)))
    fps.zipWithIndex.foreach { case (fp, i) =>
      states(i % 8).stats.add(fp)
      if (i % 3 == 0) states((i + 1) % 8).scStats.add(fp)
    }
    span("replay:weights") {
      val reps = if (ctx.tiny) 5 else 50
      r.put("core.weights_us.repo1", perCall(Seq(IndexedSeq(states(0))), reps)(rp => DynamicWeights.compute(states(0), rp, norm)(0)) / 1e3, "us")
      r.put("core.weights_us.repo8", perCall(Seq(states), reps)(rp => DynamicWeights.compute(states(0), rp, norm)(0)) / 1e3, "us")
    }

    val errors = labelled.map(o => if (o.y != o.l) 1.0 else 0.0).toSeq
    span("replay:detector") {
      val adwin = new Adwin(0.002)
      r.put("detector.adwin_add_us", perCall(errors, reps = 1)(e => if (adwin.add(e)) 1.0 else 0.0) / 1e3, "us")
    }

    span("replay:baselines") {
      Seq("HTCD" -> "htcd", "RCD" -> "rcd", "DWM" -> "dwm", "ARF" -> "arf", "ER" -> "er").foreach { case (sys, key) =>
        val system = Systems.create(sys, d, s.numClasses, ctx.seed)
        val ns = perCall(s.obs.take(n))(o => system.step(o.x, o.y)._1.toDouble)
        r.put(s"baselines.${key}_step_us", ns / 1e3, "us")
      }
    }

    if (withStream) span("replay:sparkstream") {
      val rows = WindowFingerprints.toRows(SeqWorkload.prefix(s, if (ctx.tiny) 400 else 1200))
      val kb = KeyedBatches(IndexedSeq(0), rows.grouped(100).map(b => IndexedSeq(b.toIndexedSeq)).toIndexedSeq,
        d, s.numClasses)
      val gs = StreamParts.groupState(0, kb, ctx.seed, splitSerDe = true)
      val q = StreamParts.query(ctx.spark, kb, ctx.seed, "replay_drift", ctx.workDir.resolve(s"ckpt-replay-${ProcessHandle.current.pid}"), kb.batches.length)
      r.check(q.events.getOrElse(0, IndexedSeq.empty) == gs.events, "replayed query events differ from processGroup replay")
      StreamWorkload.streamLayers(r, Seq(gs), q)
    }
    spans.add(rid, s"replay:${ctx.workload}", 0L, t0, System.nanoTime())
  }
}

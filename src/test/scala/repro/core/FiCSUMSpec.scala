package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.classifier.HoeffdingTree
import repro.eval.Systems
import repro.meta.MetaFunctions
import repro.sparkstream.StreamingDrift.{deserialize, serialize}
import repro.stream.{Datasets, StaggerConcept, RecurrentStream}

class FiCSUMSpec extends AnyFunSuite {

  private lazy val stagger = Datasets.stagger.build(1)

  private def full(d: Int, k: Int, seed: Long): FiCSUM =
    new FiCSUM("FiCSUM", d, k, FingerprintSpec.full(d), seed = seed)

  test("detects drifts and builds a repository on STAGGER") {
    val f = full(stagger.numFeatures, stagger.numClasses, seed = 1)
    stagger.obs.foreach(o => f.step(o.x, o.y))
    assert(f.driftCount >= 3, s"drifts=${f.driftCount}")
    assert(f.repositorySize >= 2, s"repo=${f.repositorySize}")
    assert(f.repositorySize <= 10, s"repo exploded: ${f.repositorySize}")
  }

  test("step returns predictions in class range and near-stable model ids") {
    val f = full(3, 2, seed = 2)
    val rng = new scala.util.Random(3)
    val gen = StaggerConcept(0)
    var maxModel = 0
    (0 until 400).foreach { t =>
      val o = gen.next(rng, t)
      val (p, m) = f.step(o.x, o.y)
      assert(p == 0 || p == 1)
      maxModel = math.max(maxModel, m)
    }
    // Detection is stochastic; at most one spurious transition is tolerated
    // on a stationary prefix.
    assert(maxModel <= 1, s"model ids ran to $maxModel on stationary data")
  }

  test("stationary stream yields no (or almost no) drift detections") {
    val f = full(3, 2, seed = 4)
    val rng = new scala.util.Random(5)
    val gen = StaggerConcept(1)
    (0 until 2000).foreach { t => val o = gen.next(rng, t); f.step(o.x, o.y) }
    assert(f.driftCount <= 2, s"drifts on stationary stream: ${f.driftCount}")
  }

  test("probe returns similarities once two concepts are stored") {
    val f = full(stagger.numFeatures, stagger.numClasses, seed = 1)
    var probed = false
    stagger.obs.foreach { o =>
      f.step(o.x, o.y)
      if (!probed && f.repositorySize >= 2) {
        f.probe().foreach { pr =>
          assert(pr.simByModel.size >= 2)
          pr.simByModel.values.foreach(v => assert(v >= 0 && v <= 1))
          probed = true
        }
      }
    }
    assert(probed, "probe never produced a result")
  }

  test("variants restrict the fingerprint sources") {
    for (name <- Seq("ER", "S-MI", "U-MI", "FiCSUM"))
      assert(Systems.create(name, 5, 2, 42).asInstanceOf[FiCSUM].name == name)
    // 5 feature + 4 supervised sources, 12 functions, 5 Shapley dims.
    assert(FingerprintSpec.errorRate(5).dim == 1)
    assert(FingerprintSpec.supervised(5).dim == 4 * 12)
    assert(FingerprintSpec.unsupervised(5).dim == 5 * 12)
    assert(FingerprintSpec.full(5).dim == 9 * 12 + 5)
  }

  test("engine is serializable mid-stream and resumes identically") {
    val f = full(stagger.numFeatures, stagger.numClasses, seed = 1)
    stagger.obs.take(700).foreach(o => f.step(o.x, o.y))
    val copy = deserialize[FiCSUM](serialize(f))
    val restA = stagger.obs.slice(700, 1100).map(o => f.step(o.x, o.y))
    val restB = stagger.obs.slice(700, 1100).map(o => copy.step(o.x, o.y))
    assert(restA == restB, "serialized engine diverged from original")
    assert(f.driftCount == copy.driftCount)
  }

  test("a round trip with warm caches continues bit-identically and serializes to the same size") {
    val aq = Datasets.aqSex.build(1)
    val f = full(aq.numFeatures, aq.numClasses, seed = 1)
    aq.obs.take(2500).foreach(o => f.step(o.x, o.y))
    // The workspace and the weight, σ and scaled-mean caches are warm in `f`
    // and cold in `copy`; none of them is part of the serialized state.
    val bytes = serialize(f)
    val copy = deserialize[FiCSUM](bytes)
    assert(serialize(copy).length == bytes.length)
    val rest = aq.obs.slice(2500, 4000)
    assert(rest.map(o => f.step(o.x, o.y)) == rest.map(o => copy.step(o.x, o.y)))
    assert(f.probe() == copy.probe() && f.driftCount == copy.driftCount)
    assert(serialize(f).length == serialize(copy).length)
  }

  test("two engines stepped in turn on one thread give the outcomes of each run alone") {
    val aqSex = Datasets.aqSex.build(2)
    val aq = aqSex.obs.take(2500)
    val st = stagger.obs.take(2500)
    def engines() = (full(aqSex.numFeatures, aqSex.numClasses, seed = 2),
      Systems.create("U-MI", stagger.numFeatures, stagger.numClasses, 2).asInstanceOf[FiCSUM])
    val (a, b) = engines()
    val alone = (aq.map(o => a.step(o.x, o.y)), st.map(o => b.step(o.x, o.y)))
    val (c, d) = engines()
    val inTurn = aq.zip(st).map { case (p, q) => (c.step(p.x, p.y), d.step(q.x, q.y)) }
    assert(inTurn.map(_._1) == alone._1 && inTurn.map(_._2) == alone._2)
    assert(c.driftCount == a.driftCount && d.driftCount == b.driftCount)
  }

  test("recurrences reuse stored classifiers (repo smaller than segments)") {
    // 3 concepts x 4 occurrences = 12 segments; a working model-selection
    // keeps the repository well below one-concept-per-segment.
    val f = full(stagger.numFeatures, stagger.numClasses, seed = 1)
    stagger.obs.foreach(o => f.step(o.x, o.y))
    assert(f.repositorySize < 10, s"repo=${f.repositorySize} for 12 segments")
  }

  test("fingerprintUpdates and detectorUpdates advance") {
    val f = full(stagger.numFeatures, stagger.numClasses, seed = 1)
    stagger.obs.take(1000).foreach(o => f.step(o.x, o.y))
    assert(f.fingerprintUpdates > 100)
    assert(f.detectorUpdates > 10)
  }

  test("ER variant works end to end on STAGGER") {
    val f = Systems.create("ER", stagger.numFeatures, stagger.numClasses, 1).asInstanceOf[FiCSUM]
    stagger.obs.foreach(o => f.step(o.x, o.y))
    assert(f.driftCount >= 3)
  }

  test("single-function variant (mean) runs end to end") {
    val f = Systems.create("fn:Mean", 3, 2, 1).asInstanceOf[FiCSUM]
    stagger.obs.take(1500).foreach(o => f.step(o.x, o.y))
    assert(f.fingerprintUpdates > 0)
  }

  test("shapley-only variant runs end to end") {
    val f = Systems.create("fn:Shapley Value", 3, 2, 1).asInstanceOf[FiCSUM]
    stagger.obs.take(1500).foreach(o => f.step(o.x, o.y))
    assert(f.fingerprintUpdates > 0)
  }

  test("property: every stored concept other than the active one has σ and a sample fingerprint") {
    // A concept leaves the active slot only through an armed drift, and the
    // second check discards a fresh concept instead of storing it, so model
    // selection needs no σ/sample filter. The active concept can lose σ:
    // ER's and Shapley-only's dim 0 decays at every classifier split.
    var checks = 0L
    for (spec <- Seq(Datasets.stagger, Datasets.aqSex); seed <- 1 to 2;
         name <- Seq("ER", "fn:Shapley Value", "FiCSUM")) {
      val s = spec.build(seed)
      val f = Systems.create(name, s.numFeatures, s.numClasses, seed).asInstanceOf[FiCSUM]
      s.obs.zipWithIndex.foreach { case (o, t) =>
        f.step(o.x, o.y)
        f.inactive.foreach { c =>
          assert(c.stats.sigmaDefined && c.sampleFps.nonEmpty, s"$name, ${spec.name} seed $seed: concept ${c.id} at step $t")
          checks += 1
        }
      }
    }
    assert(checks > 0, "no concept was ever stored inactive")
  }

  test("config validation: buffer length is positive") {
    assert(FiCSUMConfig(windowSize = 50).bufferLen == 13)
    assert(FiCSUMConfig(windowSize = 1).bufferLen == 1)
  }

  test("consecutive drifts are at least b + w steps apart") {
    // The second check at drift step + w relies on this: a drift clears the
    // buffer, and detection needs a full buffer of b + w rows.
    val cfg = FiCSUMConfig()
    for (spec <- Seq(Datasets.stagger, Datasets.aqSex)) {
      val s = spec.build(1)
      val f = full(s.numFeatures, s.numClasses, seed = 1)
      val driftSteps = s.obs.zipWithIndex.flatMap { case (o, t) =>
        val before = f.driftCount
        f.step(o.x, o.y)
        if (f.driftCount > before) Some(t) else None
      }
      assert(driftSteps.length >= 3, s"${spec.name}: drifts at $driftSteps")
      val gaps = driftSteps.sliding(2).map(p => p(1) - p(0)).toSeq
      assert(gaps.forall(_ >= cfg.bufferLen + cfg.windowSize), s"${spec.name}: drifts at $driftSteps")
    }
  }

  test("second model selection can replace a freshly created concept") {
    // Run a stream with a guaranteed recurrence pattern A-B-A-B-A-B and
    // check that the repository converges instead of growing per segment.
    val concepts = IndexedSeq(StaggerConcept(0), StaggerConcept(2))
    val s = RecurrentStream.generate("ab", concepts, 300, 3, 5)
    val f = full(3, 2, seed = 5)
    s.obs.foreach(o => f.step(o.x, o.y))
    assert(f.repositorySize <= 4, s"repo=${f.repositorySize} for 2 true concepts")
  }

  private val w = FiCSUMConfig().windowSize
  private def bits(fps: collection.Seq[Array[Double]]) = fps.map(_.toSeq.map(java.lang.Double.doubleToLongBits))

  /** AQSex trees of stored concepts, grown on the first segments: one has
    * split, the other has seen fewer rows than its grace period, so its
    * Shapley dims take the root leaf's zero path. The b + w buffer is
    * labelled by another tree on later data, as in the engine.
    */
  private lazy val (split, unsplit, buffer) = {
    val aq = Datasets.aqSex.build(1)
    val (d, fc) = (aq.numFeatures, FiCSUMConfig())
    val split = new HoeffdingTree(d, aq.numClasses, fc.treeConfig, seed = 3)
    aq.obs.take(1500).foreach(o => split.train(o.x, o.y))
    val unsplit = new HoeffdingTree(d, aq.numClasses, fc.treeConfig, seed = 5)
    aq.obs.take(60).foreach(o => unsplit.train(o.x, o.y))
    val home = new HoeffdingTree(d, aq.numClasses, fc.treeConfig, seed = 4)
    val labelled = aq.obs.slice(1500, 2400).map { o =>
      val l = home.predict(o.x); home.train(o.x, o.y); Labeled(o.x, o.y, l)
    }
    val buffer = labelled.takeRight(fc.bufferLen + w)
    assert(split.splitEvents >= 1 && buffer.exists(o => split.predict(o.x) != o.l))
    assert(unsplit.splitEvents == 0)
    (split, unsplit, buffer)
  }

  test("a workspace labelled without relabelling keeps l; relabelled, it is the window as the tree labels it") {
    import repro.classifier.ContributionOracle
    val d = split.numFeatures
    val spec = FingerprintSpec.full(d)
    val starts = Seq(0, buffer.length - w)
    val windows = starts.map(o => buffer.slice(o, o + w))
    val ws = new Fingerprinter.Workspace(spec)
    // Without relabelling, every dim but the Shapley ones (l, err and
    // errdist among them) is that of the loaded rows with no classifier, and
    // the Shapley dims are the window's mean attributions under the tree.
    val kept = Fingerprinter.make(ws.load(buffer).label(split, relabel = false), starts, w)
    assert(bits(kept.map(_.dropRight(d))) == bits(windows.map(Fingerprinter.make(spec, _, None).dropRight(d))))
    val means = windows.map { window =>
      Array.tabulate(d) { f =>
        var acc = 0.0
        window.foreach(o => acc += ContributionOracle.featureContributions(split, o.x)(f))
        acc / w
      }
    }
    assert(bits(kept.map(_.takeRight(d))) == bits(means))
    assert(means.forall(_.exists(_ != 0.0)))
    // An unsplit tree leaves the rows with no attributions, whatever the last tree left.
    val cleared = Fingerprinter.make(ws.label(unsplit, relabel = false), starts, w)
    assert(bits(cleared) == bits(windows.map(Fingerprinter.make(spec, _, None))))
    // Relabelling gives the foreign-fingerprint oracle: make over the rows relabelled with predict.
    for (tree <- Seq(split, unsplit)) {
      val got = Fingerprinter.make(ws.load(buffer).label(tree, relabel = true), starts, w)
      val want = windows.map(win => Fingerprinter.make(spec, win.map(r => r.copy(l = tree.predict(r.x))), Some(tree)))
      assert(bits(got) == bits(want))
    }
    assert(bits(Fingerprinter.make(ws.load(buffer).label(split, relabel = true), starts, w)) != bits(kept))
  }

  test("a foreign fingerprint with the shared classifier-free block equals the direct one for every variant") {
    val d = split.numFeatures
    // Model selection's staggered starts over the full b + w buffer, and the
    // tail window alone as the F_SC refresh and the probe take it.
    val shapes = Seq(
      (buffer, Seq(0, (buffer.length - w) / 2, buffer.length - w)),
      (buffer.takeRight(w), Seq(0)),
    )
    val variants = Seq("FiCSUM", "S-MI", "U-MI", "ER", "fn:Shapley Value") ++
      MetaFunctions.tableVGroups.map { case (label, _) => s"fn:$label" }
    for (name <- variants; (rows, starts) <- shapes) {
      val f = Systems.create(name, d, split.numClasses, 1).asInstanceOf[FiCSUM]
      val concepts = Seq(split, unsplit).zipWithIndex.map { case (t, id) => new ConceptState(id, f.spec.dim, t) }
      val got = f.foreignFingerprints(rows, starts, concepts)
      val want = concepts.map { s =>
        starts.map { o =>
          val window = rows.slice(o, o + w)
          Fingerprinter.make(f.spec, window.map(r => r.copy(l = s.classifier.predict(r.x))), Some(s.classifier))
        }
      }
      assert(got.map(bits) == want.map(bits), s"$name over ${rows.length} rows from $starts")
    }
  }
}

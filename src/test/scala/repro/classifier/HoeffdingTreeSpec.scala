package repro.classifier

import org.scalatest.funsuite.AnyFunSuite
import repro.sparkstream.StreamingDrift.{deserialize, serialize}
import scala.util.Random

class HoeffdingTreeSpec extends AnyFunSuite {

  private def threshold1d(n: Int, seed: Long): IndexedSeq[(Array[Double], Int)] = {
    val rng = new Random(seed)
    (0 until n).map { _ =>
      val x = rng.nextDouble()
      (Array(x), if (x > 0.5) 1 else 0)
    }
  }

  test("learns a 1-d threshold concept to high accuracy") {
    val tree = new HoeffdingTree(1, 2)
    val train = threshold1d(2000, 1)
    train.foreach { case (x, y) => tree.train(x, y) }
    val test = threshold1d(500, 2)
    val acc = test.count { case (x, y) => tree.predict(x) == y }.toDouble / test.length
    assert(acc > 0.9, s"acc=$acc")
  }

  test("prequential accuracy on a Gaussian-mixture concept is high") {
    val gen = new repro.stream.GaussianMixtureConcept(5, 1, 8, 2)
    val rng = new Random(3)
    val tree = new HoeffdingTree(8, 2)
    var correct = 0
    val n = 1500
    (0 until n).foreach { t =>
      val o = gen.next(rng, t)
      if (tree.predict(o.x) == o.y) correct += 1
      tree.train(o.x, o.y)
    }
    assert(correct.toDouble / n > 0.8, s"acc=${correct.toDouble / n}")
  }

  test("predictProba sums to ~1 and has numClasses entries") {
    val tree = new HoeffdingTree(3, 4)
    val rng = new Random(1)
    (0 until 300).foreach(_ => tree.train(Array.fill(3)(rng.nextDouble()), rng.nextInt(4)))
    val p = tree.predictProba(Array(0.5, 0.5, 0.5))
    assert(p.length == 4)
    assert(math.abs(p.sum - 1.0) < 1e-6)
    assert(p.forall(v => v >= 0 && v <= 1))
  }

  test("uniform prediction before any training") {
    val tree = new HoeffdingTree(2, 2)
    val p = tree.predictProba(Array(0.1, 0.9))
    assert(p.toSeq == Seq(0.5, 0.5))
  }

  test("splitEvents increases on a separable concept") {
    val tree = new HoeffdingTree(1, 2, HoeffdingTreeConfig(gracePeriod = 50))
    threshold1d(1000, 4).foreach { case (x, y) => tree.train(x, y) }
    assert(tree.splitEvents >= 1)
  }

  test("no splits on pure-noise labels beyond tie-breaking bound") {
    def splitsOnNoise(n: Int): Long = {
      val tree = new HoeffdingTree(1, 2, HoeffdingTreeConfig(gracePeriod = 50))
      val rng = new Random(5)
      (0 until n).foreach(_ => tree.train(Array(rng.nextDouble()), rng.nextInt(2)))
      tree.splitEvents
    }
    // At δ = 0.01 the bound ε stays at or above τ = 0.05 until a leaf holds
    // about 921 weight, so 900 rows leave the tie rule no chance to fire.
    assert(splitsOnNoise(900) == 0)
    // Past that weight τ breaks the tie, and the tree splits on noise.
    assert(splitsOnNoise(2000) >= 1)
  }

  test("maxDepth bounds the tree") {
    // A labelling tree deeper than the cap, so growth stops at the cap.
    val concept = new repro.stream.RandomTreeConcept(4, 3, maxDepth = 12)
    val tree = new HoeffdingTree(3, 2, HoeffdingTreeConfig(gracePeriod = 20))
    val rng = new Random(6)
    (0 until 10000).foreach { t =>
      val o = concept.next(rng, t)
      tree.train(o.x, o.y)
    }
    def deepest(n: tree.Node): Int = n match {
      case s: tree.Split => math.max(deepest(s.left), deepest(s.right))
      case l: tree.Leaf  => l.depth
    }
    assert(deepest(tree.root) == HoeffdingTree.MaxDepth)
  }

  test("featureContributions credits the informative feature") {
    val tree = new HoeffdingTree(3, 2)
    val rng = new Random(7)
    (0 until 3000).foreach { _ =>
      val x = Array.fill(3)(rng.nextDouble())
      tree.train(x, if (x(1) > 0.5) 1 else 0) // only x1 matters
    }
    assert(tree.splitEvents >= 1)
    val contribSums = Array.fill(3)(0.0)
    (0 until 200).foreach { _ =>
      val x = Array.fill(3)(rng.nextDouble())
      val c = tree.featureContributions(x)
      (0 until 3).foreach(j => contribSums(j) += c(j))
    }
    assert(contribSums(1) > contribSums(0) && contribSums(1) > contribSums(2),
      s"contributions=${contribSums.toSeq}")
  }

  test("featureContributions are non-negative and zero pre-split") {
    val tree = new HoeffdingTree(2, 2)
    val c0 = tree.featureContributions(Array(0.1, 0.2))
    assert(c0.forall(_ == 0.0))
  }

  test("feature subspace restricts split features") {
    val cfg = HoeffdingTreeConfig(gracePeriod = 30, featureSubsetSize = 1)
    // With a single-feature subspace chosen at the root leaf, a tree whose
    // informative feature is excluded cannot use it at the root split.
    // We only assert the mechanism runs and the tree still grows.
    val tree = new HoeffdingTree(5, 2, cfg, seed = 9)
    val rng = new Random(9)
    (0 until 1000).foreach { _ =>
      val x = Array.fill(5)(rng.nextDouble())
      tree.train(x, if (x(0) > 0.5) 1 else 0)
    }
    assert(tree.splitEvents >= 1)
  }

  test("weighted training shifts class mass") {
    val a = new HoeffdingTree(1, 2)
    a.train(Array(0.3), 0, 1.0)
    a.train(Array(0.7), 1, 10.0)
    assert(a.predict(Array(0.5)) == 1)
  }

  test("tree is java-serializable") {
    val tree = new HoeffdingTree(2, 2)
    val rng = new Random(11)
    (0 until 500).foreach { _ =>
      val x = Array.fill(2)(rng.nextDouble())
      tree.train(x, if (x(0) > 0.5) 1 else 0)
    }
    val copy = roundTrip(tree)
    val x = Array(0.25, 0.75)
    assert(copy.predict(x) == tree.predict(x))
    assert(copy.predictProba(x).toSeq == tree.predictProba(x).toSeq)
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def roundTrip(t: HoeffdingTree): HoeffdingTree = deserialize[HoeffdingTree](serialize(t))

  test("property: train after predict leaves the tree that train alone does, bit for bit") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Twin trees see the same weighted rows. `reusing` predicts each row
    // before training on it, so train reuses predict's likelihood terms;
    // `fresh` only trains (and explains other rows), so its terms never
    // match the row it trains on. Some rows are mutated in place between
    // predict and train, and `reusing` sometimes makes a Java round trip
    // there, which empties its terms. Some rows repeat earlier ones, and
    // some are evaluated again after training, as FiCSUM's buffer is.
    // `unseenRows` counts the rows whose class had no count in the leaf
    // when predict computed the terms that train then reuses.
    val cases = for {
      k <- Gen.oneOf(2, 3)
      d <- Gen.choose(1, 4)
      subset <- Gen.oneOf(-1, 1)
      n <- Gen.choose(50, 600)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (k, d, subset, n, seed)
    var nbRows = 0
    var unseenRows = 0
    var splitTrees = 0
    val prop = Prop.forAll(cases) { case (k, d, subset, n, seed) =>
      val rng = new Random(seed)
      val cfg = HoeffdingTreeConfig(gracePeriod = 20, featureSubsetSize = subset)
      var reusing = new HoeffdingTree(d, k, cfg, seed = 3)
      val fresh = new HoeffdingTree(d, k, cfg, seed = 3)
      def draw(): Array[Double] = Array.fill(d)(rng.nextDouble())
      val seen = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
      val rowsOk = (0 until n).forall { i =>
        val x = if (seen.nonEmpty && rng.nextInt(10) == 0) seen(rng.nextInt(seen.length)).clone() else draw()
        // A threshold concept on x0 that shifts halfway, with 10 % noise.
        val clean = math.min(k - 1, (x(0) * k).toInt)
        val y = if (rng.nextDouble() < 0.1) rng.nextInt(k) else (clean + (if (i < n / 2) 0 else 1)) % k
        val w = (1 + rng.nextInt(6)).toDouble
        if (NbOracle.usesNb(NbOracle.leaf(fresh, x))) nbRows += 1
        val leaf = NbOracle.leaf(reusing, x)
        val unseen = NbOracle.usesNb(leaf) && leaf.classCounts(y) <= 0
        val want = bits(NbOracle.predictProba(fresh, x))
        var ok = bits(reusing.predictProba(x)) == want
        rng.nextInt(20) match {
          case 0 => x(rng.nextInt(d)) = rng.nextDouble()
          case 1 => reusing = roundTrip(reusing)
          case 2 | 3 | 4 =>
            val z = draw()
            val (cr, cf) = (new Array[Double](d), new Array[Double](d))
            ok &&= reusing.explain(z, cr) == fresh.explain(z, cf) && bits(cr) == bits(cf)
          case _ => if (unseen) unseenRows += 1
        }
        reusing.train(x, y, w)
        fresh.train(x, y, w)
        seen += x.clone()
        if (rng.nextInt(4) == 0) ok &&= bits(reusing.predictProba(x)) == bits(NbOracle.predictProba(fresh, x))
        ok
      }
      if (fresh.splitEvents > 0) splitTrees += 1
      val later = (0 until 50).map(_ => draw())
      rowsOk && later.forall(x => bits(reusing.predictProba(x)) == bits(fresh.predictProba(x))) &&
        java.util.Arrays.equals(serialize(reusing), serialize(fresh))
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, result.status.toString)
    assert(nbRows >= 10000 && splitTrees >= 50, s"naive-Bayes rows $nbRows, trees that split $splitTrees")
    assert(unseenRows >= 100, s"rows of a class with no count at predict $unseenRows")
  }

  test("property: in every leaf a class with no count has only zero-weight observers") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // The invariant the leaf's one-flag term cache relies on. Weights are
    // ≥ 0, zero included; a rare class appears only late and only at high
    // x0, so many leaves, split-seeded children among them, lack it.
    val cases = for {
      k <- Gen.choose(2, 4)
      d <- Gen.choose(1, 4)
      n <- Gen.choose(50, 600)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (k, d, n, seed)
    var emptyClasses = 0
    var splitTrees = 0
    val prop = Prop.forAll(cases) { case (k, d, n, seed) =>
      val rng = new Random(seed)
      val t = new HoeffdingTree(d, k, HoeffdingTreeConfig(gracePeriod = 20))
      def leaves(n: t.Node): Seq[t.Leaf] = n match {
        case s: t.Split => leaves(s.left) ++ leaves(s.right)
        case l: t.Leaf  => Seq(l)
      }
      val ok = (0 until n).forall { i =>
        val x = Array.fill(d)(rng.nextDouble())
        val y = if (i > n / 2 && x(0) > 0.8) k - 1 else math.min(k - 2, (x(0) * (k - 1)).toInt)
        val w = rng.nextInt(4) match {
          case 0 => 0.0
          case 1 => 3 * rng.nextDouble()
          case _ => (1 + rng.nextInt(6)).toDouble
        }
        t.train(x, y, w)
        leaves(t.root).forall { l =>
          (0 until k).forall { c =>
            l.classCounts(c) > 0 || { emptyClasses += 1; (0 until d).forall(f => l.observers(f)(c).weight == 0.0) }
          }
        }
      }
      if (t.splitEvents > 0) splitTrees += 1
      ok
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(result.passed, result.status.toString)
    assert(emptyClasses >= 10000 && splitTrees >= 100,
      s"classes with no count $emptyClasses, trees that split $splitTrees")
  }

  test("property: without a feature subspace the seed changes no prediction, attribution or split") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // HTCD, RCD and DWM build their trees without a seed: a tree reads its
    // RNG only to draw a leaf's feature subspace. Twin trees of different
    // seeds, with no subspace (-1, or a size of at least d), train on the
    // same weighted rows; after every row, both must give the same bits on
    // a fresh row.
    val cases = for {
      k <- Gen.choose(2, 4)
      d <- Gen.choose(1, 6)
      subset <- Gen.oneOf(Gen.const(-1), Gen.choose(d, d + 2))
      n <- Gen.choose(50, 500)
      seedA <- Gen.choose(Long.MinValue, Long.MaxValue)
      seedB <- Gen.choose(Long.MinValue, Long.MaxValue)
      rowSeed <- Gen.choose(0L, Long.MaxValue)
    } yield (k, d, subset, n, seedA, seedB, rowSeed)
    var splitTrees = 0
    val prop = Prop.forAll(cases) { case (k, d, subset, n, seedA, seedB, rowSeed) =>
      val rng = new Random(rowSeed)
      val cfg = HoeffdingTreeConfig(gracePeriod = 20, featureSubsetSize = subset)
      val a = new HoeffdingTree(d, k, cfg, seed = seedA)
      val b = new HoeffdingTree(d, k, cfg, seed = seedB)
      val ok = (0 until n).forall { _ =>
        val x = Array.fill(d)(rng.nextDouble())
        val y = if (rng.nextDouble() < 0.1) rng.nextInt(k) else math.min(k - 1, (x(0) * k).toInt)
        val w = if (rng.nextInt(4) == 0) 0.1 + 3 * rng.nextDouble() else (1 + rng.nextInt(6)).toDouble
        a.train(x, y, w)
        b.train(x, y, w)
        val z = Array.fill(d)(rng.nextDouble())
        val (ca, cb) = (new Array[Double](d), new Array[Double](d))
        bits(a.predictProba(z)) == bits(b.predictProba(z)) &&
          a.explain(z, ca) == b.explain(z, cb) && bits(ca) == bits(cb) &&
          a.splitEvents == b.splitEvents
      }
      if (a.splitEvents > 0) splitTrees += 1
      ok
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, result.status.toString)
    assert(splitTrees >= 50, s"trees that split $splitTrees")
    // With a proper subspace the seed is read: some pair of seeds draws
    // different root features. The seeds are spread out, because the first
    // draws of java.util.Random from small consecutive seeds agree.
    val pick = new Random(5)
    val seeds = Seq.fill(20)(pick.nextLong())
    for (d <- 2 to 6; size <- 1 until d) {
      val drawn = seeds.map { seed =>
        val t = new HoeffdingTree(d, 2, HoeffdingTreeConfig(featureSubsetSize = size), seed = seed)
        t.root match { case l: t.Leaf => l.candidateFeatures.toSeq; case _ => Seq.empty }
      }
      assert(drawn.distinct.length > 1, s"d=$d, subspace $size: every seed drew ${drawn.head}")
    }
  }

  test("property: every candidate feature's split (gain, threshold) equals the verbatim oracle bit for bit") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Trees grown from weighted rows (weights above 1, as ARF's Poisson(6)
    // draws are, and fractional ones) on 2 or 3 classes, with every
    // feature or an ARF-style subspace of 2, sometimes with a constant
    // feature. Every 10 rows, every leaf is searched through one
    // SplitSearch, as an attempt does, feature after feature.
    val cases = for {
      k <- Gen.oneOf(2, 3)
      d <- Gen.choose(1, 5)
      subset <- Gen.oneOf(-1, 2)
      constant <- Gen.oneOf(false, true)
      n <- Gen.choose(50, 500)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (k, d, subset, constant, n, seed)
    def same(a: Double, b: Double) = java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)
    var searched, gains, absentClass = 0
    val prop = Prop.forAll(cases) { case (k, d, subset, constant, n, seed) =>
      val rng = new Random(seed)
      val t = new HoeffdingTree(d, k, HoeffdingTreeConfig(gracePeriod = 20, featureSubsetSize = subset), seed = 3)
      def leaves(node: t.Node): Seq[t.Leaf] = node match {
        case s: t.Split => leaves(s.left) ++ leaves(s.right)
        case l: t.Leaf  => Seq(l)
      }
      (0 until n).forall { i =>
        val x = Array.fill(d)(rng.nextDouble())
        if (constant) x(d - 1) = 0.5
        val y = if (rng.nextDouble() < 0.1) rng.nextInt(k) else math.min(k - 1, (x(0) * k).toInt)
        val w = if (rng.nextInt(4) == 0) 0.1 + 3 * rng.nextDouble() else (1 + rng.nextInt(6)).toDouble
        t.train(x, y, w)
        i % 10 != 9 || leaves(t.root).forall { leaf =>
          val search = new t.SplitSearch(leaf, leaf.totalWeight)
          if (leaf.classCounts.contains(0.0)) absentClass += 1
          leaf.candidateFeatures.forall { f =>
            val (g, thr) = search.best(f)
            val (wantG, wantThr) = SplitOracle.bestSplitForFeature(t, leaf, f)
            searched += 1
            if (g > 0) gains += 1
            same(g, wantG) && same(thr, wantThr)
          }
        }
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(result.passed, result.status.toString)
    assert(gains >= 10000 && absentClass >= 100, s"searched $searched, positive gains $gains, leaves lacking a class $absentClass")
  }

  test("property: Leaf.divide writes the class mass doSplit seeded its children with, bit for bit") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Leaves of trees grown from weighted rows on 2 or 3 classes; the third
    // class is never drawn in some cases, so it holds zero weight. Every
    // 10 rows, every leaf divides each feature at thresholds inside its
    // observed range and outside it. `divide` writes into buffers that
    // hold junk (a reused search buffer), the oracle into zeroed arrays
    // (fresh children).
    val cases = for {
      k <- Gen.oneOf(2, 3)
      unseen <- Gen.oneOf(false, true)
      d <- Gen.choose(1, 4)
      n <- Gen.choose(30, 300)
      seed <- Gen.choose(0L, Long.MaxValue)
    } yield (k, unseen, d, n, seed)
    var divided, zeroClass, outside = 0
    val prop = Prop.forAll(cases) { case (k, unseen, d, n, seed) =>
      val rng = new Random(seed)
      val t = new HoeffdingTree(d, k, HoeffdingTreeConfig(gracePeriod = 20), seed = 3)
      val drawn = if (unseen) k - 1 else k
      def leaves(node: t.Node): Seq[t.Leaf] = node match {
        case s: t.Split => leaves(s.left) ++ leaves(s.right)
        case l: t.Leaf  => Seq(l)
      }
      (0 until n).forall { i =>
        val x = Array.fill(d)(rng.nextDouble())
        val y = if (rng.nextDouble() < 0.1) rng.nextInt(drawn) else math.min(drawn - 1, (x(0) * drawn).toInt)
        t.train(x, y, if (rng.nextInt(4) == 0) 0.1 + 3 * rng.nextDouble() else (1 + rng.nextInt(6)).toDouble)
        i % 10 != 9 || leaves(t.root).forall { leaf =>
          if (leaf.classCounts.contains(0.0)) zeroClass += 1
          // A leaf made by a split holds seeded counts but no observed range.
          (0 until d).filter(f => leaf.mins(f) <= leaf.maxs(f)).forall { f =>
            val lo = leaf.mins(f); val hi = leaf.maxs(f)
            val thresholds = Seq(lo, hi, lo + (hi - lo) * rng.nextDouble(), lo - 1 - rng.nextDouble(), hi + 1 + rng.nextDouble())
            thresholds.forall { thr =>
              if (!(thr >= lo && thr <= hi)) outside += 1
              divided += 1
              val (l, r) = (Array.fill(k)(Double.NaN), Array.fill(k)(-7.0))
              val (wantL, wantR) = (new Array[Double](k), new Array[Double](k))
              leaf.divide(f, thr, l, r)
              SplitOracle.seedChildren(t, leaf, f, thr, wantL, wantR)
              bits(l) == bits(wantL) && bits(r) == bits(wantR)
            }
          }
        }
      }
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(result.passed, result.status.toString)
    assert(zeroClass >= 100 && outside >= 1000, s"divisions $divided, leaves with a zero-weight class $zeroClass, outside the range $outside")
  }
}

/** `explain` against the verbatim two-pass attribution oracle, bit for bit. */
class ExplainSpec extends AnyFunSuite {
  import org.scalacheck.{Gen, Prop, Test => SCTest}
  import repro.core.FiCSUMConfig
  import repro.stream.{Datasets, GaussianMixtureConcept}

  private val cfg = FiCSUMConfig().treeConfig

  /** A tree trained prequentially on `xs`, and the rows it saw. */
  private def grown(d: Int, k: Int, xs: Seq[(Array[Double], Int)]): (HoeffdingTree, IndexedSeq[Array[Double]]) = {
    val t = new HoeffdingTree(d, k, cfg, seed = 5)
    xs.foreach { case (x, y) => t.train(x, y) }
    (t, xs.map(_._1).toIndexedSeq)
  }

  private lazy val trees: IndexedSeq[(String, HoeffdingTree, IndexedSeq[Array[Double]])] = {
    val aq = Datasets.aqSex.build(1)
    val cmc = Datasets.cmc.build(1)
    val gen = new GaussianMixtureConcept(5, 1, 8, numClasses = 3)
    val rng = new Random(7)
    val three = (0 until 4000).map { t => val o = gen.next(rng, t); (o.x, o.y) }
    val (aqTree, aqRows) = grown(aq.numFeatures, aq.numClasses, aq.obs.take(2000).map(o => (o.x, o.y)))
    val (cmcTree, cmcRows) = grown(cmc.numFeatures, cmc.numClasses, cmc.obs.take(2000).map(o => (o.x, o.y)))
    val (threeTree, threeRows) = grown(8, 3, three)
    val (flatTree, flatRows) = grown(8, 3, three.take(40))
    IndexedSeq(("AQSex", aqTree, aqRows), ("CMC", cmcTree, cmcRows),
      ("3-class", threeTree, threeRows), ("unsplit", flatTree, flatRows))
  }

  test("an unsplit tree attributes no rows, and make gives the bits of zero attributions") {
    import repro.core.{FingerprintSpec, Fingerprinter, Labeled}
    val byName = trees.map { case (n, t, rows) => n -> (t, rows) }.toMap
    val (flat, flatRows) = byName("unsplit")
    val spec = FingerprintSpec.full(flat.numFeatures)
    val window = flatRows.zipWithIndex.map { case (x, i) => Labeled(x, i % 3, flat.predict(x)) }
    val zeros = new Array[Double](flat.numFeatures)
    // A root leaf's path attributions are +0.0 for every feature.
    assert(window.forall(o => bits(ContributionOracle.featureContributions(flat, o.x)) == bits(zeros)))
    val fp = Fingerprinter.make(spec, window, Some(flat))
    assert(bits(fp) == bits(Fingerprinter.make(spec, window, None)))
    // Summed +0.0 attributions over the window: the Shapley dims are +0.0.
    assert(bits(fp.takeRight(flat.numFeatures)) == bits(zeros))
    // A split tree attributes every row: its Shapley dims are the oracle's
    // per-feature mean over the window (+0.0, then the rows in order, / w).
    val (aq, aqRows) = byName("AQSex")
    val aqWindow = aqRows.take(50).map(x => Labeled(x, 0, aq.predict(x)))
    val mean = Array.tabulate(aq.numFeatures) { f =>
      var acc = 0.0
      aqWindow.foreach(o => acc += ContributionOracle.featureContributions(aq, o.x)(f))
      acc / aqWindow.length
    }
    val aqFp = Fingerprinter.make(FingerprintSpec.full(aq.numFeatures), aqWindow, Some(aq))
    assert(bits(aqFp.takeRight(aq.numFeatures)) == bits(mean))
    assert(mean.exists(_ != 0.0))
  }

  test("the oracle trees cover naive-Bayes leaves, 3 classes and an unsplit root") {
    val byName = trees.map { case (n, t, _) => n -> t }.toMap
    assert(byName("AQSex").splitEvents >= 3, byName("AQSex").splitEvents)
    assert(ContributionOracle.naiveBayesLeaves(byName("AQSex"), HoeffdingTree.NbThreshold) >= 1)
    assert(byName("CMC").splitEvents >= 1 && byName("3-class").splitEvents >= 1)
    assert(byName("3-class").numClasses == 3)
    assert(byName("unsplit").splitEvents == 0)
  }

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToLongBits)

  test("property: explain returns predict and the oracle's attributions bit for bit") {
    val cases = for {
      (_, tree, rows) <- Gen.oneOf(trees)
      x <- Gen.oneOf(
        Gen.oneOf(rows),
        Gen.containerOfN[Array, Double](tree.numFeatures, Gen.choose(-0.5, 1.5)))
    } yield (tree, x)
    val prop = Prop.forAll(cases) { case (tree, x) =>
      val contrib = new Array[Double](tree.numFeatures)
      val want = bits(ContributionOracle.featureContributions(tree, x))
      tree.explain(x, contrib) == tree.predict(x) && bits(contrib) == want &&
        bits(tree.featureContributions(x)) == want
    }
    val result = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop)
    assert(result.passed, result.status.toString)
  }
}

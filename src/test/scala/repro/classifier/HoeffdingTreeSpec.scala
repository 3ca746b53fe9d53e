package repro.classifier

import org.scalatest.funsuite.AnyFunSuite
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
    val tree = new HoeffdingTree(1, 2, HoeffdingTreeConfig(gracePeriod = 50, tieThreshold = 0.0))
    val rng = new Random(5)
    (0 until 2000).foreach(_ => tree.train(Array(rng.nextDouble()), rng.nextInt(2)))
    assert(tree.splitEvents <= 2, s"splits=${tree.splitEvents}")
  }

  test("maxDepth bounds the tree") {
    val cfg = HoeffdingTreeConfig(gracePeriod = 20, maxDepth = 2)
    val tree = new HoeffdingTree(3, 2, cfg)
    val rng = new Random(6)
    (0 until 3000).foreach { _ =>
      val x = Array.fill(3)(rng.nextDouble())
      tree.train(x, if (x(0) + x(1) > 1) 1 else 0)
    }
    // depth<=2 means at most 1 + 2 = 3 splits
    assert(tree.splitEvents <= 3)
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
    val bos = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bos).writeObject(tree)
    val in = new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bos.toByteArray))
    val copy = in.readObject().asInstanceOf[HoeffdingTree]
    val x = Array(0.25, 0.75)
    assert(copy.predict(x) == tree.predict(x))
    assert(copy.predictProba(x).toSeq == tree.predictProba(x).toSeq)
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

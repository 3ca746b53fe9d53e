package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RecurrentStreamSpec extends AnyFunSuite {

  test("occurrenceOrder contains each concept exactly `occurrences` times") {
    val order = RecurrentStream.occurrenceOrder(4, 5, new Random(1))
    assert(order.length == 20)
    (0 until 4).foreach(c => assert(order.count(_ == c) == 5))
  }

  test("occurrenceOrder avoids adjacent repeats when possible") {
    for (seed <- 1 to 20) {
      val order = RecurrentStream.occurrenceOrder(3, 4, new Random(seed))
      val adjacent = order.sliding(2).count(p => p(0) == p(1))
      assert(adjacent == 0, s"seed=$seed order=$order")
    }
  }

  test("generate produces segLen * occurrences * concepts observations") {
    val concepts = (0 until 3).map(StaggerConcept(_))
    val s = RecurrentStream.generate("t", concepts, 50, 2, 1)
    assert(s.length == 50 * 2 * 3)
    assert(s.conceptIds.distinct.length == 3)
  }

  test("concept ids change exactly at segment boundaries") {
    val concepts = (0 until 3).map(StaggerConcept(_))
    val s = RecurrentStream.generate("t", concepts, 40, 2, 2)
    val boundaries = s.conceptIds.sliding(2).zipWithIndex.collect {
      case (Seq(a, b), i) if a != b => i + 1
    }.toSeq
    assert(boundaries.forall(_ % 40 == 0), s"boundaries=$boundaries")
  }

  test("same seed reproduces the identical stream") {
    val c1 = (0 until 2).map(c => new RandomTreeConcept(c, 5))
    val c2 = (0 until 2).map(c => new RandomTreeConcept(c, 5))
    val a = RecurrentStream.generate("t", c1, 30, 2, 7)
    val b = RecurrentStream.generate("t", c2, 30, 2, 7)
    assert(a.conceptIds == b.conceptIds)
    assert(a.obs.map(_.y) == b.obs.map(_.y))
  }

  test("mismatched dimensionality is rejected") {
    val mixed = IndexedSeq(new RandomTreeConcept(1, 5), new RandomTreeConcept(2, 6))
    intercept[IllegalArgumentException](RecurrentStream.generate("t", mixed, 10, 1, 1))
  }

  test("GeneratedStream validates aligned lengths") {
    intercept[IllegalArgumentException] {
      GeneratedStream("t", IndexedSeq(Observation(Array(1.0), 0)), IndexedSeq(0, 1), 1, 2)
    }
  }
}

class DatasetsSpec extends AnyFunSuite {

  test("registry matches Table II dataset names") {
    val names = Datasets.all.map(_.name)
    assert(names == IndexedSeq("AQTemp", "AQSex", "Arabic", "CMC", "QG", "UCI-Wine",
      "RBF", "RTREE", "STAGGER", "HPLANE-U", "RTREE-U"))
  }

  test("feature and context counts match Table II") {
    val byName = Datasets.all.map(s => s.name -> s).toMap
    assert(byName("AQTemp").numFeatures == 25 && byName("AQTemp").numContexts == 6)
    assert(byName("AQSex").numFeatures == 25 && byName("AQSex").numContexts == 6)
    assert(byName("Arabic").numFeatures == 10 && byName("Arabic").numContexts == 10)
    assert(byName("CMC").numFeatures == 8 && byName("CMC").numContexts == 2)
    assert(byName("QG").numFeatures == 63 && byName("QG").numContexts == 10)
    assert(byName("UCI-Wine").numFeatures == 11 && byName("UCI-Wine").numContexts == 2)
    assert(byName("STAGGER").numFeatures == 3 && byName("STAGGER").numContexts == 3)
    assert(byName("RBF").numFeatures == 10 && byName("RBF").numContexts == 6)
    assert(byName("RTREE").numFeatures == 10 && byName("RTREE").numContexts == 6)
    assert(byName("HPLANE-U").numFeatures == 10 && byName("HPLANE-U").numContexts == 6)
    assert(byName("RTREE-U").numFeatures == 10 && byName("RTREE-U").numContexts == 6)
  }

  test("built streams honour the spec dimensions") {
    for (spec <- Datasets.all) {
      val s = spec.build(3)
      assert(s.numFeatures == spec.numFeatures, spec.name)
      assert(s.conceptIds.distinct.length == spec.numContexts, spec.name)
      assert(s.length == spec.length, spec.name)
    }
  }

  test("synth family covers the 7 Table V modulation combinations") {
    assert(Datasets.synthFamily.map(_.name) == IndexedSeq(
      "Synth_A", "Synth_AF", "Synth_D", "Synth_DA", "Synth_DAF", "Synth_DF", "Synth_F"))
  }

  test("byName resolves every dataset and rejects unknown names") {
    (Datasets.all ++ Datasets.synthFamily).foreach(s => assert(Datasets.byName(s.name).name == s.name))
    intercept[NoSuchElementException](Datasets.byName("nope"))
  }

  /** FNV-1a over every observation's feature bits, its label and its
    * concept id, in stream order.
    */
  private def contentHash(s: GeneratedStream): Long = {
    var h = 0xcbf29ce484222325L
    def mix(v: Long): Unit = h = (h ^ v) * 0x100000001b3L
    for ((o, c) <- s.obs.zip(s.conceptIds)) {
      o.x.foreach(v => mix(java.lang.Double.doubleToLongBits(v)))
      mix(o.y.toLong)
      mix(c.toLong)
    }
    h
  }

  // Recorded before the dataset recipes were factored into one `Spec.build`.
  private val seed1Hashes = Map[String, Long](
    "AQTemp" -> 0x279dc8974fe6638fL,
    "AQSex" -> 0x2ad69ced6f78cf38L,
    "Arabic" -> 0xb093dccf4c285991L,
    "CMC" -> 0x04d688e56442e098L,
    "QG" -> 0x7f0264bcedba678bL,
    "UCI-Wine" -> 0x8321a177695491ffL,
    "RBF" -> 0x9b577259319f124aL,
    "RTREE" -> 0xe3461c6c0ac362dfL,
    "STAGGER" -> 0x47f6ac73e1f4a3ccL,
    "HPLANE-U" -> 0x49e3a3b54863dfd6L,
    "RTREE-U" -> 0x081d4c1da5993363L,
    "Synth_A" -> 0xa7fff6c861936cd3L,
    "Synth_AF" -> 0xf17718dbdd44c0eaL,
    "Synth_D" -> 0xa514c3c53d6212f4L,
    "Synth_DA" -> 0x193fc15317c27c77L,
    "Synth_DAF" -> 0x9255a8a956e991a2L,
    "Synth_DF" -> 0x623a39d24e3f32d5L,
    "Synth_F" -> 0x9e621245b71764a2L,
  )

  test("seed-1 streams of every registered dataset are unchanged") {
    val got = (Datasets.all ++ Datasets.synthFamily).map(s => s.name -> contentHash(s.build(1))).toMap
    for ((name, h) <- seed1Hashes) assert(got(name) == h, f"$name: 0x${got(name)}%016x")
    assert(got.keySet == seed1Hashes.keySet)
  }

  test("streams are deterministic per seed and differ across seeds") {
    val a = Datasets.stagger.build(1)
    val b = Datasets.stagger.build(1)
    val c = Datasets.stagger.build(2)
    assert(a.obs.map(_.y) == b.obs.map(_.y))
    assert(a.conceptIds != c.conceptIds || a.obs.map(_.y) != c.obs.map(_.y))
  }
}

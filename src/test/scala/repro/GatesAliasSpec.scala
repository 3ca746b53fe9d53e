package repro

import org.scalatest.Suite
import org.scalatest.funsuite.AnyFunSuite

/** Every name in the `gates` alias of `build.sbt` is a suite on the test
  * classpath. `testOnly` runs the names it finds and passes over the rest
  * without a word, so a renamed or misspelled suite would drop out of the
  * outputs-unchanged gate unnoticed.
  */
class GatesAliasSpec extends AnyFunSuite {

  /** The alias's command as sbt builds it: its string literals joined. */
  private lazy val gates: String = {
    val build = scala.io.Source.fromFile("build.sbt", "UTF-8")
    val text = try build.mkString finally build.close()
    val alias = text.drop(text.indexOf("addCommandAlias(\"gates\","))
    "\"([^\"]*)\"".r.findAllMatchIn(alias.take(alias.indexOf(')'))).map(_.group(1)).drop(1).mkString
  }

  test("every name in the gates alias loads as a ScalaTest suite, this one included") {
    val words = gates.split("\\s+").filter(_.nonEmpty).toSeq
    assert(words.headOption.contains("testOnly"), gates)
    val suites = words.tail
    assert(suites.contains(classOf[GatesAliasSpec].getName), gates)
    val missing = suites.filterNot { name =>
      try classOf[Suite].isAssignableFrom(Class.forName(name, false, getClass.getClassLoader))
      catch { case _: ClassNotFoundException => false }
    }
    assert(missing.isEmpty, s"not a suite on the test classpath: ${missing.mkString(", ")}")
  }
}

package repro.perfbench

import repro.crowd.Answer

/** Unit tests of the harness's own helpers, on hand-made cases. Run with
  * `python3 perfbench/test.py`; exits non-zero when a case fails.
  */
object SelfTest {
  private var failures = 0
  private var cases = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    cases += 1
    val passed = try ok catch { case e: Throwable => println(s"  $name threw $e"); false }
    if (!passed) failures += 1
    println(s"${if (passed) "ok  " else "FAIL"} $name")
  }

  private def close(a: Double, b: Double) = math.abs(a - b) < 1e-12

  def main(args: Array[String]): Unit = {
    // --- percentile rule ---
    val hundred = (1 to 100).map(_.toDouble)
    check("median of an odd and an even sample")(Stats.median(Seq(3.0, 1, 2)) == 2.0 && Stats.median(Seq(4.0, 1, 3, 2)) == 2.5)
    check("p90 of 100 samples has exactly 10 beyond it and is given")(Stats.tail(hundred, 0.90).contains(90.0))
    check("p95 of 100 samples has only 5 beyond it and is withheld")(Stats.tail(hundred, 0.95).isEmpty)
    check("p95 of 200 samples has 10 beyond it and is given")(Stats.tail((1 to 200).map(_.toDouble), 0.95).contains(190.0))
    check("p95 of 199 samples has 9 beyond it and is withheld")(Stats.tail((1 to 199).map(_.toDouble), 0.95).isEmpty)
    check("no tail from no samples")(Stats.tail(Nil, 0.5).isEmpty)
    check("the tail ignores sample order")(Stats.tail(hundred.reverse, 0.90).contains(90.0))

    // --- precision / recall (§5.1) ---
    val truth = Array(Array(0, 1), Array(2), Array.emptyIntArray, Array(3))
    val pred = Map(0 -> Array(0, 2), 1 -> Array(2), 2 -> Array.emptyIntArray, 3 -> Array.emptyIntArray)
    val pr = Checks.precisionRecall(truth, pred(_))
    // Items: P = 1/2, 1, 1 (both empty), 0 (empty prediction); R = 1/2, 1, 1, 0.
    check("precision averages per-item |Y∩Y*|/|Y*|")(close(pr.precision, 2.5 / 4))
    check("recall averages per-item |Y∩Y*|/|Y|")(close(pr.recall, 2.5 / 4))
    check("F1 of P=R is that value")(close(pr.f1, 2.5 / 4))
    check("a non-empty prediction for an empty truth scores 0")(
      Checks.precisionRecall(Array(Array.emptyIntArray), _ => Array(1)) == Checks.PR(0.0, 0.0))
    check("a perfect prediction scores 1")(Checks.precisionRecall(truth, truth(_)) == Checks.PR(1.0, 1.0))

    // --- majority vote ---
    val answers = Seq(
      Answer(0, 0, Array(0, 1)), Answer(0, 1, Array(1)), Answer(0, 2, Array(1, 2)),
      Answer(1, 0, Array(3)), Answer(1, 1, Array(4)),
      Answer(2, 0, Array(0, 4)))
    val mv = Checks.majorityVote(answers, nItems = 4, nLabels = 5)
    check("a label voted by 3 of 3 is kept, 1 of 3 is dropped")(mv(0).sameElements(Array(1)))
    check("a label voted by exactly half is dropped")(mv(1).isEmpty)
    check("a single answer is its own majority, sorted")(mv(2).sameElements(Array(0, 4)))
    check("an item without answers gets the empty set")(mv(3).isEmpty)

    // --- structural checks ---
    check("sorted distinct in-range label sets pass")(Checks.labelSets(pred, 4, 5).isEmpty)
    check("an unsorted label set is caught")(Checks.labelSets(pred.updated(0, Array(2, 0)), 4, 5).nonEmpty)
    check("a repeated label is caught")(Checks.labelSets(pred.updated(0, Array(1, 1)), 4, 5).nonEmpty)
    check("a label outside [0, C) is caught")(Checks.labelSets(pred.updated(0, Array(5)), 4, 5).nonEmpty)
    check("a missing item is caught")(Checks.labelSets(pred - 3, 4, 5).nonEmpty)
    check("rows summing to 1 pass")(Checks.stochasticRows("r", Array(Array(0.25, 0.75))).isEmpty)
    check("a row off by 1e-5 is caught")(Checks.stochasticRows("r", Array(Array(0.25, 0.75001))).nonEmpty)
    check("a NaN row is caught")(Checks.stochasticRows("r", Array(Array(Double.NaN, 1.0))).nonEmpty)
    check("values above 1 are caught")(Checks.unitInterval("y", Array(Array(0.5, 1.5))).nonEmpty)

    // --- span self time ---
    val spans = Seq(
      Span(0, 1, -1, "fit", 0, 100),
      Span(0, 2, 1, "engine", 10, 40),
      Span(0, 3, 1, "engine", 30, 60),
      Span(0, 4, 2, "job", 15, 20))
    val self = Trace.selfTimes(spans)
    check("self time subtracts the union of overlapping children")(self(1) == 50)
    check("self time of a span with one child")(self(2) == 25 && self(4) == 5)

    println(s"$cases cases, $failures failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}

package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{CpaConfig, CpaModel, CpaSvi}
import repro.crowd.{Answer, CrowdDataset, Datasets}
import repro.spark.CpaSpark

/** What one workload pass produced.
  *
  * @param consensusS wall time to turn the whole answer set into label sets
  * @param updateMs   model-update latencies of the pass (one VI iteration
  *                   per pass, or every SVI batch)
  * @param f1         F1 of the pass's final label sets
  * @param attempted  operations checked in the pass
  * @param problems   what the checks found; an operation with any problem
  *                   counts as failed
  */
final case class PassResult(consensusS: Double, updateMs: Seq[Double], f1: Double,
    attempted: Int, failed: Int, problems: Seq[String])

/** A closed-loop workload: inputs made from a seed once per set-up, then
  * whole passes over them, each pass waiting for the previous one.
  */
trait Workload {
  def name: String
  /** Passes run before timing starts. */
  def warmUpPasses: Int
  /** Generate inputs and make the engines ready. */
  def setup(layers: Layers): Unit
  def pass(layers: Layers, timed: Boolean): PassResult
  /** Fitted models of the latest pass, kept referenced for the live-heap
    * measurement.
    */
  def models: Seq[(CrowdDataset, CpaModel)]
  def close(): Unit = ()
}

object Workload {
  val names: Seq[String] = Seq("vi-local", "vi-spark", "svi-stream")

  def apply(name: String, seed: Long): Workload = name match {
    case "vi-local" => new ViLocal(seed)
    case "vi-spark" => new ViSpark(seed)
    case "svi-stream" => new SviStream(seed)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (expected one of ${names.mkString(", ")})")
  }

  def seconds(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def timedGenerate[A](layers: Layers, answers: A => Long)(gen: => A): A = {
    val t0 = System.nanoTime()
    val out = gen
    layers.generated(seconds(t0), answers(out))
    out
  }
}

/** Offline VI (fit + predict) over a list of corpora, one engine. */
abstract class ViWorkload(seed: Long) extends Workload {
  protected val cfg: CpaConfig = CpaConfig()
  protected var corpora: Seq[CrowdDataset] = Nil
  private var last: Seq[(CrowdDataset, CpaModel)] = Nil
  private val majorityF1 = scala.collection.mutable.Map.empty[String, Double]

  protected def fit(layers: Layers, ds: CrowdDataset): CpaModel
  protected def predict(model: CpaModel): Map[Int, Array[Int]]
  protected def mustBeatMajority: Boolean
  /** Further checks of one fitted corpus (e.g. engine parity). */
  protected def extraChecks(ds: CrowdDataset, model: CpaModel, pred: Map[Int, Array[Int]]): Seq[String] = Nil

  override def models: Seq[(CrowdDataset, CpaModel)] = last

  override def pass(layers: Layers, timed: Boolean): PassResult = {
    var consensus = 0.0
    var fitS = 0.0
    var iterations = 0
    val f1s = Seq.newBuilder[Double]
    val problems = Seq.newBuilder[String]
    var failed = 0
    last = corpora.map { ds =>
      val t0 = System.nanoTime()
      val model = Trace.span("fit")(fit(layers, ds))
      val t1 = System.nanoTime()
      val pred = Trace.span("predict")(predict(model))
      val t2 = System.nanoTime()
      consensus += (t2 - t0) / 1e9
      fitS += (t1 - t0) / 1e9
      iterations += model.iterations
      if (timed) layers.fitted(model, (t2 - t1) / 1e9)
      val mvF1 = if (mustBeatMajority) Some(majorityF1.getOrElseUpdate(ds.name, {
        val mv = Checks.majorityVote(ds.answers, ds.nItems, ds.nLabels)
        Checks.precisionRecall(ds.truth, mv(_)).f1
      })) else None
      val (f1, found) = Checks.consensus(ds, pred, mvF1)
      val all = found ++ Checks.modelState(model) ++ extraChecks(ds, model, pred)
      if (all.nonEmpty) failed += 1
      problems ++= all
      f1s += f1
      ds -> model
    }
    if (timed) System.err.println(s"[perfbench] $name iterations: " +
      last.map { case (ds, m) => s"${ds.name}=${m.iterations}" }.mkString(" "))
    PassResult(consensus, Seq(fitS * 1000 / math.max(1, iterations)), Stats.mean(f1s.result()),
      corpora.size, failed, problems.result())
  }
}

/** Offline VI on the local engine over the five Table-3 replicas at sf=1.0. */
final class ViLocal(seed: Long) extends ViWorkload(seed) {
  override val name = "vi-local"
  override val warmUpPasses = 1
  override protected val mustBeatMajority = true

  override def setup(layers: Layers): Unit =
    corpora = Workload.timedGenerate[Seq[CrowdDataset]](layers, _.map(_.nAnswers.toLong).sum) {
      Datasets.generateAll(sf = 1.0, seed = seed)
    }
  override protected def fit(layers: Layers, ds: CrowdDataset): CpaModel = layers.fitLocal(ds, cfg)
  override protected def predict(model: CpaModel): Map[Int, Array[Int]] = model.predict()
}

/** Offline VI on the Spark engine over image (answer-heavy, C=81) and entity
  * (payload-heavy, C=1450) at sf=0.3, checked against the local engine on
  * the same corpora and config.
  *
  * The fits stop at 5 iterations, fewer than either corpus needs, so every
  * pass does the same work: at reduced scale the iterations image needs
  * depend on the seed (11 to 25 at sf=0.2), and since a Spark iteration costs
  * about the same whatever the data, that alone spread `consensus_s` by about
  * 30%. Convergence is measured on vi-local. One executor thread, because
  * with two the run-to-run spread of `consensus_s` was several times larger.
  */
final class ViSpark(seed: Long) extends ViWorkload(seed) {
  override val name = "vi-spark"
  override val warmUpPasses = 3
  override protected val mustBeatMajority = false
  override protected val cfg: CpaConfig = CpaConfig(maxIter = 5)
  val scaleFactor = 0.3
  val master = "local[1]"
  val shufflePartitions = 4
  val answerPartitions = 4

  private var spark: SparkSession = _
  private val reference = scala.collection.mutable.Map.empty[String, (Int, Map[Int, Array[Int]])]

  override def setup(layers: Layers): Unit = {
    if (spark != null) { spark.stop(); spark = null }
    corpora = Workload.timedGenerate[Seq[CrowdDataset]](layers, _.map(_.nAnswers.toLong).sum) {
      Seq("image", "entity").map(Datasets.generate(_, scaleFactor, seed))
    }
    spark = SparkSession.builder().master(master).appName("perfbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    // One trivial job, so executors and code generation are ready.
    spark.range(0, 100, 1, answerPartitions).selectExpr("sum(id)").collect()
    layers.sessionStarted(spark)
  }

  override protected def fit(layers: Layers, ds: CrowdDataset): CpaModel =
    layers.fitSpark(spark, ds, cfg, answerPartitions)
  override protected def predict(model: CpaModel): Map[Int, Array[Int]] = CpaSpark.predict(spark, model)

  override protected def extraChecks(ds: CrowdDataset, model: CpaModel, pred: Map[Int, Array[Int]]): Seq[String] = {
    val (iters, local) = reference.getOrElseUpdate(ds.name, {
      val m = Layers.EntryPoints.fitLocal(ds, cfg)
      (m.iterations, m.predict())
    })
    val differ = (0 until ds.nItems).count(i => !pred.getOrElse(i, Array.emptyIntArray).sameElements(local(i)))
    Seq(
      if (iters != model.iterations) Some(s"${ds.name}: Spark ran ${model.iterations} iterations, local $iters") else None,
      if (differ > 0) Some(s"${ds.name}: $differ items predicted differently from the local engine") else None,
    ).flatten
  }

  override def close(): Unit = if (spark != null) spark.stop()
}

/** Online SVI over a `Datasets.largeScale` corpus: answers arrive in a seeded
  * order in fixed-size batches, with a snapshot and prediction every
  * `snapshotEvery` batches and after the last one.
  */
final class SviStream(seed: Long) extends Workload {
  override val name = "svi-stream"
  override val warmUpPasses = 1
  val nItems = 20000
  val nWorkers = 2000
  val nLabels = 100
  val answersPerItem = 5
  val batchSize = 500
  val snapshotEvery = 50
  private val cfg = CpaConfig()

  private var corpus: CrowdDataset = _
  private var batches: Vector[Vector[Answer]] = Vector.empty
  private var last: Seq[(CrowdDataset, CpaModel)] = Nil
  private lazy val majorityF1 = {
    val mv = Checks.majorityVote(corpus.answers, corpus.nItems, corpus.nLabels)
    Checks.precisionRecall(corpus.truth, mv(_)).f1
  }

  override def models: Seq[(CrowdDataset, CpaModel)] = last

  override def setup(layers: Layers): Unit = {
    corpus = Workload.timedGenerate[CrowdDataset](layers, _.nAnswers.toLong) {
      Datasets.largeScale(nItems, nWorkers, nLabels, answersPerItem, seed)
    }
    batches = new scala.util.Random(seed).shuffle(corpus.answers).grouped(batchSize).toVector
  }

  override def pass(layers: Layers, timed: Boolean): PassResult = {
    val svi = new CpaSvi(cfg, corpus.nItems, corpus.nWorkers, corpus.nLabels)
    val latencies = new Array[Double](batches.length)
    var consensus = 0.0
    var attempted = 0
    var failed = 0
    var f1 = 0.0
    val problems = Seq.newBuilder[String]
    batches.indices.foreach { b =>
      val t0 = System.nanoTime()
      Trace.span("processBatch")(layers.processBatch(svi, batches(b)))
      latencies(b) = (System.nanoTime() - t0) / 1e6
      consensus += latencies(b) / 1000
      if ((b + 1) % snapshotEvery == 0 || b == batches.length - 1) {
        val t1 = System.nanoTime()
        val model = Trace.span("toModel")(svi.toModel)
        val t2 = System.nanoTime()
        val pred = Trace.span("predict")(model.predict())
        val t3 = System.nanoTime()
        consensus += (t3 - t1) / 1e9
        if (timed) layers.snapshot((t2 - t1) / 1e9, (t3 - t2) / 1e9)
        val isFinal = b == batches.length - 1
        val (score, found) = Checks.consensus(corpus, pred, if (isFinal) Some(majorityF1) else None)
        val all = found ++ Checks.modelState(model)
        attempted += 1
        if (all.nonEmpty) failed += 1
        problems ++= all
        if (isFinal) {
          f1 = score
          last = Seq(corpus -> model)
        }
      }
    }
    PassResult(consensus, latencies.toSeq, f1, attempted, failed, problems.result())
  }
}

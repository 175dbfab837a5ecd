package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{CpaConfig, CpaModel, CpaSvi, CpaVi}
import repro.crowd.CrowdDataset
import repro.spark.CpaSpark

/** The calls a workload makes into the program, and the hooks a traced run
  * uses to observe it. [[Layers.EntryPoints]] calls only the public entry
  * points and observes nothing; it is what every untraced run uses. The
  * traced implementation lives in the separately compiled probes, so that a
  * change to an engine interface can break only the traced run.
  */
trait Layers {
  def fitLocal(ds: CrowdDataset, cfg: CpaConfig): CpaModel
  def fitSpark(spark: SparkSession, ds: CrowdDataset, cfg: CpaConfig, partitions: Int): CpaModel
  def processBatch(svi: CpaSvi, batch: Seq[repro.crowd.Answer]): Unit

  /** Inputs for the workload were generated, in `seconds`. */
  def generated(seconds: Double, answers: Long): Unit = ()
  def sessionStarted(spark: SparkSession): Unit = ()
  def passStarted(timed: Boolean): Unit = ()
  def passEnded(timed: Boolean): Unit = ()

  /** A VI model was fitted and predicted from, in a timed pass. */
  def fitted(model: CpaModel, predictSeconds: Double): Unit = ()
  /** An SVI snapshot was taken and predicted from, in a timed pass. */
  def snapshot(toModelSeconds: Double, predictSeconds: Double): Unit = ()

  /** Per-layer metrics, given the models of the last timed pass. */
  def report(last: Seq[(CrowdDataset, CpaModel)]): Seq[Metric] = Nil
}

object Layers {
  object EntryPoints extends Layers {
    override def fitLocal(ds: CrowdDataset, cfg: CpaConfig): CpaModel =
      CpaVi.fit(ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg)
    override def fitSpark(spark: SparkSession, ds: CrowdDataset, cfg: CpaConfig, partitions: Int): CpaModel =
      CpaSpark.fit(spark, ds.answers, ds.nItems, ds.nWorkers, ds.nLabels, cfg, partitions)
    override def processBatch(svi: CpaSvi, batch: Seq[repro.crowd.Answer]): Unit =
      svi.processBatch(batch)
  }

  /** The traced implementation, loaded by name so that the harness does not
    * link against the probes.
    */
  def traced(): Layers =
    Class.forName("repro.perfbench.probes.Probes").getDeclaredConstructor().newInstance().asInstanceOf[Layers]
}

final case class Metric(name: String, value: Double, unit: String)

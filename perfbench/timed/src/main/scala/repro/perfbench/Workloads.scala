package repro.perfbench

import repro.core.{Baselines, RunResult, Ted, TedConfig}
import repro.data.MoleculeGen
import repro.graph.GraphDb

/** One benchmark workload: a method entry point on a seeded database.
  *
  * @param method         entry point: "ted" (`Ted.full`), "base" (`Ted.base`)
  *                       or "fsgg" (`Baselines.fsgG`)
  * @param data           dataset parameters for a benchmark seed
  * @param warmup         seconds of untimed entry-point calls (at least two)
  *                       before the timed loop
  * @param distPartitions when positive, the traced run also runs and
  *                       replays `DistTed.run` with the same data and
  *                       configuration on this many partitions; the timed
  *                       loop ignores it
  * @param distWarmup     seconds of untimed `DistTed.run` calls (at least
  *                       two) before that replay
  */
final case class Workload(
    name: String,
    method: String,
    data: Long => MoleculeGen.Params,
    k: Int,
    eMax: Int,
    supMin: Double = 0.0,
    warmup: Double = 3.0,
    distPartitions: Int = 0,
    distWarmup: Double = 8.0,
) {
  def config: TedConfig = TedConfig(k = k, eMax = eMax, timeoutMillis = Workloads.CallTimeoutMillis)
}

object Workloads {

  /** A call running longer than this returns `timedOut` and counts as failed. */
  val CallTimeoutMillis: Long = 60000L

  /** The benchmark seed `s` seeds AIDS-like data with `s` and PubChem-like
    * data with `s + 6`, so the default seed 7 reproduces the presets
    * (AIDS 7, PubChem 13).
    */
  val DefaultSeed: Long = 7L
  def aidsSeed(seed: Long): Long = seed
  def pubChemSeed(seed: Long): Long = seed + 6

  val full: Seq[Workload] = Seq(
    Workload("ted-aids3200", "ted", s => MoleculeGen.aidsLike(3200, aidsSeed(s)), k = 5, eMax = 10,
      distPartitions = 4),
    Workload("base-aids1600", "base", s => MoleculeGen.aidsLike(1600, aidsSeed(s)), k = 5, eMax = 5),
    Workload("fsgg-pub1800", "fsgg", s => MoleculeGen.pubChemLike(1800, pubChemSeed(s)),
      k = 5, eMax = 10, supMin = 0.1, warmup = 4.0),
  )

  /** The same workloads at `Experiments.tiny`-like size, for the self-test. */
  val tiny: Seq[Workload] = Seq(
    Workload("ted-aids3200", "ted", s => MoleculeGen.aidsLike(60, aidsSeed(s)), k = 3, eMax = 4, warmup = 0.0,
      distPartitions = 2, distWarmup = 0.0),
    Workload("base-aids1600", "base", s => MoleculeGen.aidsLike(30, aidsSeed(s)), k = 3, eMax = 4, warmup = 0.0),
    Workload("fsgg-pub1800", "fsgg", s => MoleculeGen.pubChemLike(40, pubChemSeed(s)),
      k = 3, eMax = 4, supMin = 0.2, warmup = 0.0),
  )

  /** Set-up: generate the database and build its `GraphDb`. */
  def setup(w: Workload, seed: Long): GraphDb = MoleculeGen.db(w.data(seed))

  /** One call of the workload's entry point. */
  def solve(w: Workload, db: GraphDb): RunResult = w.method match {
    case "ted"  => Ted.full(db, w.config)
    case "base" => Ted.base(db, w.config)
    case "fsgg" => Baselines.fsgG(db, w.k, w.eMax, w.supMin, CallTimeoutMillis)
  }
}

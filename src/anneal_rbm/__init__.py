"""Replication-based mitigation workbench for Ising annealing.

End-to-end pipeline: hardware-graph modeling (Pegasus/Chimera), replica and
K_{1,3} penalty-code embeddings, planted-solution instance generation via
frustrated loops on an Eulerian edge cover, sampling through a noise-
injecting simulated annealer or an external-sampler file bridge, decoding,
and energy / ground-state-probability reporting.
"""

__version__ = "0.1.0"

from .decode import (DecodedSolution, QacProblem, build_qac_problem,
                     decode_majority, decode_rbm, decode_sqa_repeat)
from .embedding import (CombinedEmbedding, QacEncoding, ReplicaPartition,
                        combine_qac_rbm, partition_replicas, tile_qac,
                        verify_partition)
from .errors import (ContractError, DimensionMismatchError,
                     EmbeddingInfeasibleError, FormatError,
                     InvalidParameterError)
from .experiments import (ExperimentConfig, ExperimentReport, emit_report,
                          gsp, run_experiment)
from .ising import (IsingProblem, ReplicatedProblem, energies, energy,
                    gauge_transform, make_problem, replicate)
from .planted import (GeneratorParams, LoopCover, PlantedInstance,
                      build_loop_cover, decompose_loops, eulerian_augment,
                      generate_instance, verify_planted)
from .jsonio import read_json, write_json
from .samplers import (AnnealParams, ExactSolution, NoiseModel, SampleSet,
                       import_samples, region_biases, sample_sa, solve_exact)
from .topology import (GraphStats, HardwareGraph, apply_defects,
                       build_chimera, build_custom, build_pegasus,
                       graph_stats)

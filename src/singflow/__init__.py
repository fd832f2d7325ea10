"""Singular suspension flows over the binary full shift.

The library implements the suspension space over {0,1}^Z with a roof that
vanishes at the all-zero sequence, its Bowen-Walters chain geometry, the
Abramov entropy correspondence for lifted Bernoulli measures, and an
accelerated-shift block codec over a 24-letter alphabet whose first-return
structure, injectivity and fiber-subshift entropies are verified exactly.
"""

from .sequences import (BitSequence, GapPair, SymbolSequence, MAX_GAP,
                        SequenceFormatError, format_sequence_literal, gap_pair,
                        parse_sequence_literal, seq_distance, shift)
from .roofs import (ADMISSIBLE, INADMISSIBLE, ConstantProfile, GapProfile,
                    Geometric, Harmonic, LogHarmonic, ParameterDomainError, Power,
                    ProfileResourceError, RoofFunction, RoofSpecError, Table,
                    Truncated, UntaggedTableError, ZeroProfile,
                    admissibility_check, parse_profile_spec, parse_roof_spec,
                    roof_eval)
from .suspension import (HORIZONTAL, VERTICAL, AdmissibleChain,
                         CanonicalHeightError, FlowPoint, FlowResourceError,
                         InadmissibleRoofError, PairKindError, UnitPoint,
                         UnitRoofExtension, bw_distance_upper, bw_distances_upper,
                         flow, flow_point, flowpoints_close, norm_height,
                         pair_length, singular_point, unit_roof_extension)
from .entropy import (EntropyReport, FlowMeasureSpec, MeasureAtom, ScanResult,
                      abramov, flow_entropy_bernoulli, roof_integral_bernoulli,
                      separated_entropy_estimate, sex_entropy_formula,
                      sft_entropy_wordcount, shannon_binary,
                      singular_limit_scan, word_count)
from .codec import (ADJUSTED, ALPHABET, PAPER, AmbiguousContextError,
                    BlockProfile, CodeLetter, CodecDomainError, DecodeError,
                    FirstReturnStructureError, RegionDomainError, accel_step,
                    ceil_sqrt, decode_position, decode_sequence, decode_word,
                    encode_block, encode_sequence, fiber_sfts, letter,
                    parse_letter, parse_word, region_of, render_word,
                    return_profile, roof_prime, roof_prime_continuity_probe,
                    step_length)

__version__ = "0.1.0"

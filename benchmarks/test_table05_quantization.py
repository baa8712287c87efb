"""Table 5: model quantization and entropy coding.

For each model the paper reports: the PSNR drop after L1/L2 quantization and
fine-tuning (0.05-0.14 dB at 8 bits), a parameter-bitstream compression ratio
of 1.1-1.5x, coded sizes close to the Shannon limit, and everything fitting
the 1,288 KB parameter memory.  Here the codes are the served ones: each
model's fixed-point program (Eq. 4 formats from :mod:`repro.quant.fixed`'s
L2 search), compiled and Huffman-packed.  Both losses are model outputs of
:func:`repro.quant.simulate_fine_tuning`, not measurements.
"""


from conftest import emit
from repro.analysis.report import format_table
from repro.fbisa.compiler import compile_network
from repro.fbisa.params import pack_parameters, weight_entropy
from repro.hw.config import DEFAULT_CONFIG
from repro.models.ernet import build_dnernet, build_sr4ernet
from repro.quant import simulate_fine_tuning
from repro.quant.fixed import fixed_point_network


def _quantize_and_pack():
    rows = []
    results = {}
    # Representative models kept small enough for a fast bench run; the
    # statistics (compression ratio, entropy, residual loss) are the ones
    # Table 5 reports per model.
    for name, builder in (
        ("DnERNet-B3R1N0", lambda: build_dnernet(3, 1, 0)),
        ("DnERNet-B16R1N0", lambda: build_dnernet(16, 1, 0)),
        ("SR4ERNet-B17R3N1", lambda: build_sr4ernet(17, 3, 1)),
    ):
        network = builder()
        program = fixed_point_network(network)
        tuned = simulate_fine_tuning(network, program)
        compiled = compile_network(program, input_block=128)
        params = [p for p in compiled.parameters if p is not None]
        packed = pack_parameters(name, params)
        entropy = weight_entropy(params)
        coded_bits_per_weight = packed.total_encoded_bits / max(
            1, sum(p.weights3x3.size + (p.weights1x1.size if p.weights1x1 is not None else 0) for p in params)
        )
        rows.append(
            (
                name,
                round(tuned.initial_loss_db, 2),
                round(tuned.final_loss_db, 2),
                round(packed.compression_ratio, 2),
                round(entropy, 2),
                round(coded_bits_per_weight, 2),
                packed.total_encoded_bytes // 1024,
            )
        )
        results[name] = (tuned, packed, entropy, coded_bits_per_weight)
    return rows, results


def test_table05_quantization_and_entropy_coding(benchmark):
    rows, results = benchmark.pedantic(_quantize_and_pack, rounds=1, iterations=1)
    emit(
        format_table(
            "Table 5 — quantization and entropy coding (served 8-bit codes, Eq. 4 L2 formats)",
            [
                "model",
                "modelled loss before FT (dB)",
                "modelled loss after FT (dB)",
                "compression",
                "entropy (b/w)",
                "coded (b/w)",
                "size (KB)",
            ],
            rows,
        )
    )
    for name, (tuned, packed, entropy, coded) in results.items():
        # Fine-tuning recovers the quantization loss down to ~0.05-0.2 dB.
        assert tuned.final_loss_db <= 0.2, name
        assert tuned.final_loss_db < tuned.initial_loss_db
        # Compression ratio in the paper's 1.1-1.5x band (synthetic weights
        # are slightly less compressible than trained ones, allow 1.0+).
        assert 1.0 <= packed.compression_ratio <= 1.8, name
        # Coded size per weight stays close to the Shannon limit.
        assert coded >= entropy - 0.01
        assert coded <= entropy * 1.35 + 0.6
        # Everything fits the parameter memory.
        assert packed.fits_in(DEFAULT_CONFIG.parameter_memory_bytes), name

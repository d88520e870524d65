"""Bit pins of KronMom and Algorithm 1 outputs.

The tolerance tests in ``test_kronmom.py`` check that the solver finds
good initiators; these check that it finds *the same* ones, to the last
bit, so a refactor of the moment formulas, the objective or the
Nelder–Mead refine cannot drift silently.  Every value is ``float.hex``
of ``(a, b, c, objective)`` as ``KronMomEstimator.fit_statistics`` (or a
``PrivateKroneckerEstimator`` fit) returns it; the private pins also hold
the first 16 hex digits of the SHA-256 of the released degree sequence.

The pins cover both distances × all four normalisations × two feature
sets on the exact statistics of the four Table 1 graphs, plus one noisy
vector whose negative entries take the floor path.

numpy's ``power`` loop depends on the instruction set it dispatches to:
its AVX-512 code and its AVX2/baseline code differ in the last bit for a
few percent of inputs, and both the grid stage and the refine stage go
through it.  The pins were recorded on an AVX-512 host with numpy 2.4
both ways (AVX-512 loops on and disabled) and were the same, so one set
serves both.  On a host whose numpy dispatches AVX-512 loops,
``test_pins_hold_without_numpy_avx512_loops`` re-runs this file with them
disabled, so a change that holds the pins only on AVX-512 fails there too.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kronecker.kronmom import DEFAULT_FEATURES, KronMomEstimator
from repro.stats.counts import MatchingStatistics, matching_statistics

# (statistics, k) per input: the exact statistics of the Table 1 graphs at
# their padded Kronecker order, and a DP-like vector with negative entries.
STATISTICS = {
    "ca-grqc": (MatchingStatistics(28980.0, 753725.0, 22816684.0, 27037.0), 13),
    "ca-hepth": (MatchingStatistics(51971.0, 1423765.0, 60635592.0, 37309.0), 14),
    "as20": (MatchingStatistics(26467.0, 507035.0, 12054906.0, 991.0), 13),
    "synthetic-kronecker": (MatchingStatistics(21293.0, 278319.0, 3785724.0, 464.0), 14),
    "noisy": (MatchingStatistics(28412.75, 761390.5, -1834.25, -57.5), 13),
}
TABLE1_GRAPHS = ("ca-grqc", "ca-hepth", "as20", "synthetic-kronecker")
FEATURE_SETS = {"all": DEFAULT_FEATURES, "edges+triangles": ("edges", "triangles")}

KRONMOM_PINS = {
    ("squared", "observed", "all", "ca-grqc"): ('0x1.0000000000000p+0', '0x1.20e9f58b0ed8dp-1', '0x1.608e81e2c8ceep-3', '0x1.56dfb441657bbp+14'),
    ("squared", "observed", "all", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.1c51ae70c4140p-1', '0x1.110372e37156ap-3', '0x1.fb35ebe641281p+14'),
    ("squared", "observed", "all", "as20"): ('0x1.d0f2f843b1026p-1', '0x1.41d0a10e04b44p-1', '0x1.af7a0d141e968p-4', '0x1.08e1d03457d91p+10'),
    ("squared", "observed", "all", "synthetic-kronecker"): ('0x1.ffffffffffda8p-1', '0x1.c7bc46eedf450p-2', '0x1.018664c435d82p-2', '0x1.2951691e1bd85p+0'),
    ("squared", "observed", "all", "noisy"): ('0x1.6cde9d994d75dp-8', '0x1.0000000000000p+0', '0x1.6cddf7862236fp-8', '0x1.7d45700e7a058p+19'),
    ("squared", "observed", "edges+triangles", "ca-grqc"): ('0x1.0000000000000p+0', '0x1.60a00268b876ap-1', '0x0.0p+0', '0x1.d0ee7e412c306p+12'),
    ("squared", "observed", "edges+triangles", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.52883460a2762p-1', '0x0.0p+0', '0x1.65887d0600cd9p+13'),
    ("squared", "observed", "edges+triangles", "as20"): ('0x1.c55a4de371435p-1', '0x1.442473e3d2e48p-1', '0x1.41a4b569274cfp-3', '0x1.5b71261b67eeep-38'),
    ("squared", "observed", "edges+triangles", "synthetic-kronecker"): ('0x1.fe9c8a0b4eb6cp-1', '0x1.cfa2894d7b21ep-2', '0x1.e861ba3bea700p-3', '0x1.cc1a949c44764p-40'),
    ("squared", "observed", "edges+triangles", "noisy"): ('0x1.8cd9c615e97b8p-2', '0x1.eea3820b0c83ep-1', '0x1.9f05b06dc0554p-10', '0x1.8d01837ab4433p-36'),
    ("squared", "observed_squared", "all", "ca-grqc"): ('0x1.ffffffffd9f48p-1', '0x1.1ef44f7dfc5b6p-1', '0x1.949af94b93fbep-3', '0x1.94bc3a21cde4bp-1'),
    ("squared", "observed_squared", "all", "ca-hepth"): ('0x1.fffffffff9d6ap-1', '0x1.18efc0e5eb518p-1', '0x1.60974c6567301p-3', '0x1.9fdcca33f0989p-1'),
    ("squared", "observed_squared", "all", "as20"): ('0x1.ca42485d1d57ap-1', '0x1.43c23e4225790p-1', '0x1.0eec90015bbcdp-3', '0x1.31c13c250049fp-6'),
    ("squared", "observed_squared", "all", "synthetic-kronecker"): ('0x1.ffffffffed4eap-1', '0x1.c8acdb2158396p-2', '0x1.ffa6b2132059cp-3', '0x1.b3c6902f6c681p-10'),
    ("squared", "observed_squared", "all", "noisy"): ('0x1.b0d1aab63f1a7p-1', '0x1.4c6b4756247ecp-5', '0x1.b0d19ba4b3cd8p-1', '0x1.7b41a2afe2786p+1'),
    ("squared", "observed_squared", "edges+triangles", "ca-grqc"): ('0x1.fffffa97a44e8p-1', '0x1.612afaae38a6cp-1', '0x1.1622eb42c8f58p-35', '0x1.10fa1b719de1cp-2'),
    ("squared", "observed_squared", "edges+triangles", "ca-hepth"): ('0x1.fffffffffeb62p-1', '0x1.54e38c0c6aa87p-1', '0x1.a1b9e8b955c3cp-33', '0x1.12d34a614c84bp-2'),
    ("squared", "observed_squared", "edges+triangles", "as20"): ('0x1.d10b58611cfbbp-1', '0x1.323ec776293b2p-1', '0x1.a211e87f30262p-3', '0x1.fdc7cbab561efp-44'),
    ("squared", "observed_squared", "edges+triangles", "synthetic-kronecker"): ('0x1.dc4a6a011f34dp-1', '0x1.1d787ba729979p-1', '0x1.889d73ba58ea5p-4', '0x1.d482e7fab3eddp-44'),
    ("squared", "observed_squared", "edges+triangles", "noisy"): ('0x1.6063731ce0cc9p-2', '0x1.ebf2e5e4fc3acp-1', '0x1.c6be4b6bb0466p-5', '0x1.136c61065ecfbp-45'),
    ("squared", "expected", "all", "ca-grqc"): ('0x1.0000000000000p+0', '0x1.1de782342f585p-1', '0x1.a1beaa7846886p-3', '0x1.6f6b117286d7ap+17'),
    ("squared", "expected", "all", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.1a17a3d636021p-1', '0x1.463faf4b39a54p-3', '0x1.13ea7ebb0c864p+18'),
    ("squared", "expected", "all", "as20"): ('0x1.d080801d9007ep-1', '0x1.42200851a70dcp-1', '0x1.b1b9f05b83eb2p-4', '0x1.434f02b2dbb5bp+10'),
    ("squared", "expected", "all", "synthetic-kronecker"): ('0x1.0000000000000p+0', '0x1.c7bc3e18e8d76p-2', '0x1.0186965658456p-2', '0x1.373a714913f61p+0'),
    ("squared", "expected", "all", "noisy"): ('0x1.0000000000000p+0', '0x1.8c06262700a52p-3', '0x1.0000000000000p+0', '0x1.78ce2c5d97a56p+20'),
    ("squared", "expected", "edges+triangles", "ca-grqc"): ('0x1.0000000000000p+0', '0x1.66da5049c2a30p-1', '0x1.8accf3a409400p-52', '0x1.a03ebd8f88e9bp+12'),
    ("squared", "expected", "edges+triangles", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.5929667d30e5ap-1', '0x0.0p+0', '0x1.63c6765e511dep+13'),
    ("squared", "expected", "edges+triangles", "as20"): ('0x1.ced4deabfed5cp-1', '0x1.358311f2151e8p-1', '0x1.90c888011de04p-3', '0x1.e0302387caba6p-39'),
    ("squared", "expected", "edges+triangles", "synthetic-kronecker"): ('0x1.ffdc5fbf3c24cp-1', '0x1.cbcd7bb5af2f2p-2', '0x1.f2b9d17da186cp-3', '0x1.087d2c261db79p-38'),
    ("squared", "expected", "edges+triangles", "noisy"): ('0x1.8b4fb64c9c084p-2', '0x1.ee890709a1850p-1', '0x1.c9809ad197c14p-9', '0x1.e9367371c60a5p-37'),
    ("squared", "expected_squared", "all", "ca-grqc"): ('0x1.ffffffd6efb94p-1', '0x1.30d7afe03d93ep-2', '0x1.fffffeb581760p-1', '0x1.62f213f1a3b95p+0'),
    ("squared", "expected_squared", "all", "ca-hepth"): ('0x1.fffffffff5914p-1', '0x1.18a95c5096083p-2', '0x1.ffffffffde8e5p-1', '0x1.4b3151de65258p+0'),
    ("squared", "expected_squared", "all", "as20"): ('0x1.c804849e11762p-1', '0x1.45758ec16e805p-1', '0x1.1367879ac62e2p-3', '0x1.23ca8e09ebb47p-6'),
    ("squared", "expected_squared", "all", "synthetic-kronecker"): ('0x1.fffffffff9614p-1', '0x1.c8ca78a8564acp-2', '0x1.ff32f98186640p-3', '0x1.c3ae4136f7f20p-10'),
    ("squared", "expected_squared", "all", "noisy"): ('0x1.835afc6ae71e0p-2', '0x1.ffffffff25479p-1', '0x1.2d782d9c45b20p-37', '0x1.7985e2ccb7126p+0'),
    ("squared", "expected_squared", "edges+triangles", "ca-grqc"): ('0x1.fffffffaaf270p-1', '0x1.69cc2138dfa20p-1', '0x1.2bf96428e36fcp-23', '0x1.4506bf93ba105p-3'),
    ("squared", "expected_squared", "edges+triangles", "ca-hepth"): ('0x1.fffffffdc27b8p-1', '0x1.5c86fcf1ec198p-1', '0x1.44f1eb18d4a70p-38', '0x1.4af44b83c7178p-3'),
    ("squared", "expected_squared", "edges+triangles", "as20"): ('0x1.e00b7f4033998p-1', '0x1.1ce5d41c7ba93p-1', '0x1.0871f1161f73bp-2', '0x1.caaf001fbb68cp-45'),
    ("squared", "expected_squared", "edges+triangles", "synthetic-kronecker"): ('0x1.d36dee90f1361p-1', '0x1.2d38d69442636p-1', '0x1.a6f115c0c386ap-5', '0x1.2d98b826715cdp-47'),
    ("squared", "expected_squared", "edges+triangles", "noisy"): ('0x1.549117b8c174cp-2', '0x1.eb5848f69fd17p-1', '0x1.1c525cf06a5c2p-4', '0x1.3bb26c4fe21a5p-43'),
    ("absolute", "observed", "all", "ca-grqc"): ('0x1.fffffa493316bp-1', '0x1.1d2c8c05a39bfp-1', '0x1.aff8e2f5f2a71p-3', '0x1.00d014265c76ep+0'),
    ("absolute", "observed", "all", "ca-hepth"): ('0x1.fffffffe30446p-1', '0x1.17126dcbea822p-1', '0x1.8948a0239199cp-3', '0x1.176bc1d832fc8p+0'),
    ("absolute", "observed", "all", "as20"): ('0x1.c0fe6332ebfefp-1', '0x1.4b613f4a72509p-1', '0x1.192d13c3390eap-3', '0x1.9aca3cc8812cfp-3'),
    ("absolute", "observed", "all", "synthetic-kronecker"): ('0x1.ffffea3ef08d4p-1', '0x1.c80858b4627d4p-2', '0x1.00a1cfe015e36p-2', '0x1.99d96fefc8b3ap-5'),
    ("absolute", "observed", "all", "noisy"): ('0x1.15e6eb9744700p-1', '0x1.2d4d5432bf880p-2', '0x1.0ff60c55efc9ep-1', '0x1.7e4f6c790c494p+1'),
    ("absolute", "observed", "edges+triangles", "ca-grqc"): ('0x1.ffffffffe0639p-1', '0x1.5327629841ac8p-1', '0x1.03d73b04a6a4cp-15', '0x1.5296a1ac8f5abp-1'),
    ("absolute", "observed", "edges+triangles", "ca-hepth"): ('0x1.fffffffff1cbep-1', '0x1.483a56409cce5p-1', '0x1.22673b65d57bap-20', '0x1.51a792d1c3ba6p-1'),
    ("absolute", "observed", "edges+triangles", "as20"): ('0x1.cba81e94745a8p-1', '0x1.3a486bd3e2d74p-1', '0x1.774f850b8f40ep-3', '0x1.5624451732376p-34'),
    ("absolute", "observed", "edges+triangles", "synthetic-kronecker"): ('0x1.d7a1d571a3742p-1', '0x1.25875794f9018p-1', '0x1.2cf27d92c4ae3p-4', '0x1.647f35e4cd1fep-34'),
    ("absolute", "observed", "edges+triangles", "noisy"): ('0x1.8d7e3b7b7411ap-2', '0x1.eeae9776698fep-1', '0x1.9c74ac3e19b64p-11', '0x1.02e056d38d1cfp-35'),
    ("absolute", "observed_squared", "all", "ca-grqc"): ('0x1.fffff59d83206p-1', '0x1.531a81aeffcd4p-1', '0x1.df660227077e4p-13', '0x1.bf3e2df4fc302p-16'),
    ("absolute", "observed_squared", "all", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.5f285fc040d88p-1', '0x1.760482d0c32b8p-21', '0x1.300ea0a7387d8p-16'),
    ("absolute", "observed_squared", "all", "as20"): ('0x1.e5ee8691b5ab0p-1', '0x1.14b6e49816820p-1', '0x1.1d6b5d2acb8a6p-2', '0x1.c1cf3b9ee13fbp-24'),
    ("absolute", "observed_squared", "all", "synthetic-kronecker"): ('0x1.d53edf37a4464p-1', '0x1.29d6722ec6ee2p-1', '0x1.f62fd72ebb729p-5', '0x1.5e4b0d45abbadp-19'),
    ("absolute", "observed_squared", "all", "noisy"): ('0x1.fb0b05b636d48p-1', '0x1.7140324d4a100p-4', '0x1.307901874e2a8p-27', '0x1.fde5ebcfbfdc9p-1'),
    ("absolute", "observed_squared", "edges+triangles", "ca-grqc"): ('0x1.ffffffdc4f88ap-1', '0x1.5325b140036bep-1', '0x1.dc60acc056f9cp-15', '0x1.9a61129b9aaeep-16'),
    ("absolute", "observed_squared", "edges+triangles", "ca-hepth"): ('0x1.fffffffcab638p-1', '0x1.5f26a47e68ab2p-1', '0x1.432c38869e790p-15', '0x1.cd37152b1fe28p-17'),
    ("absolute", "observed_squared", "edges+triangles", "as20"): ('0x1.e5ef982b54953p-1', '0x1.14b5729b344cep-1', '0x1.1d6ee404de470p-2', '0x1.636813e782ab5p-34'),
    ("absolute", "observed_squared", "edges+triangles", "synthetic-kronecker"): ('0x1.e9ae9d8971868p-1', '0x1.07e270edd69cap-1', '0x1.3b73af2a2f6e6p-3', '0x1.544653f545d1ap-35'),
    ("absolute", "observed_squared", "edges+triangles", "noisy"): ('0x1.2446308833ee4p-1', '0x1.5889c5e1cd04cp-1', '0x1.1515757692500p-3', '0x1.d7a547f57951ap-16'),
    ("absolute", "expected", "all", "ca-grqc"): ('0x1.fffffffffcd98p-1', '0x1.3f35f80fcdd34p-2', '0x1.fffffffff2c14p-1', '0x1.1345087ba00d0p+1'),
    ("absolute", "expected", "all", "ca-hepth"): ('0x1.fffffffffe5d2p-1', '0x1.17130a91928f4p-2', '0x1.ffe5bbe850d58p-1', '0x1.db57413d4b4dcp+0'),
    ("absolute", "expected", "all", "as20"): ('0x1.c0fe614e1c550p-1', '0x1.4b61406c76bf0p-1', '0x1.192d1ab3a1ba9p-3', '0x1.5628c821607c5p-3'),
    ("absolute", "expected", "all", "synthetic-kronecker"): ('0x1.fffffffff9f4ep-1', '0x1.c8082d714bae6p-2', '0x1.00a1faf71a2bep-2', '0x1.abccd6f9e31b0p-5'),
    ("absolute", "expected", "all", "noisy"): ('0x1.89983d7c4f3bbp-1', '0x1.8d7597cfbff55p-1', '0x1.6c47180552afdp-28', '0x1.ff76120bab41ep+0'),
    ("absolute", "expected", "edges+triangles", "ca-grqc"): ('0x1.ffffffffff9eap-1', '0x1.6c19219152880p-1', '0x1.966ec8d4c32d9p-20', '0x1.a76e558bee08ep-2'),
    ("absolute", "expected", "edges+triangles", "ca-hepth"): ('0x1.fffffffff240cp-1', '0x1.5ee3a4924575cp-1', '0x1.aaa166e0e0fd0p-36', '0x1.b3deaeb50de9cp-2'),
    ("absolute", "expected", "edges+triangles", "as20"): ('0x1.df15b8df37bf7p-1', '0x1.1e3cd43e5b109p-1', '0x1.0500feff118f4p-2', '0x1.379059218598cp-35'),
    ("absolute", "expected", "edges+triangles", "synthetic-kronecker"): ('0x1.cb15ba74319cdp-1', '0x1.3e975bbcd6b8cp-1', '0x1.419a1dfbe0b20p-14', '0x1.377ae4dea9b6ep-34'),
    ("absolute", "expected", "edges+triangles", "noisy"): ('0x1.8e108090a4cedp-2', '0x1.eeb87bc7e9316p-1', '0x1.463faf6430618p-14', '0x1.58cdeb94eae13p-35'),
    ("absolute", "expected_squared", "all", "ca-grqc"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffdecce958be9p-26'),
    ("absolute", "expected_squared", "all", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.fff53fa99c8dcp-28'),
    ("absolute", "expected_squared", "all", "as20"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffe89e8846482p-26'),
    ("absolute", "expected_squared", "all", "synthetic-kronecker"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.00099b0cd42dap-27'),
    ("absolute", "expected_squared", "all", "noisy"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffe1044db4b69p-26'),
    ("absolute", "expected_squared", "edges+triangles", "ca-grqc"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffcec9ebd54d6p-26'),
    ("absolute", "expected_squared", "edges+triangles", "ca-hepth"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffed3ee9e6fb9p-28'),
    ("absolute", "expected_squared", "edges+triangles", "as20"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffd89b89d1c0ep-26'),
    ("absolute", "expected_squared", "edges+triangles", "synthetic-kronecker"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.00059aacd66c7p-27'),
    ("absolute", "expected_squared", "edges+triangles", "noisy"): ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.ffd1015038c27p-26'),
}
PRIVATE_PINS = {
    ("ca-grqc", 0.05, 0): ('0x1.ffffffffe8148p-1', '0x1.346ecf081f4dap-1', '0x1.bd9030ce5a682p-4', '0x1.986524bc84937p-1', '01bd6ffaeca85795'),
    ("ca-grqc", 0.05, 1): ('0x1.fffffffffbe6ap-1', '0x1.37ced2118b7bfp-1', '0x1.9158e176cd851p-4', '0x1.558cd45fdfac8p-1', 'eb8f0f4ab25270b0'),
    ("ca-grqc", 0.2, 0): ('0x1.fffffffffc80fp-1', '0x1.244394c9679d8p-1', '0x1.668d30365b612p-3', '0x1.8e3cbf39a6f9fp-1', '36367144a523398b'),
    ("ca-grqc", 0.2, 1): ('0x1.ffffffffe751cp-1', '0x1.247c6585aee46p-1', '0x1.649b4a0822c41p-3', '0x1.899ddb72f0e59p-1', '5a23b4f39061928f'),
    ("ca-grqc", 1.0, 0): ('0x1.ffffffffe5852p-1', '0x1.1fe8d6fd07de0p-1', '0x1.8c0688bb6eb4ap-3', '0x1.935e97130f7fcp-1', 'eaab1667136e14f8'),
    ("ca-grqc", 1.0, 1): ('0x1.fffffffff128cp-1', '0x1.1fe842f1a5736p-1', '0x1.8c08c493772e0p-3', '0x1.930b1126bf2fep-1', '4d0d8555ad22d12a'),
    ("ca-hepth", 0.05, 0): ('0x1.fffffffffe3dcp-1', '0x1.1615afe7061e1p-1', '0x1.85050035dafcdp-3', '0x1.073e51b4302c6p-1', 'fba4dee6cdf2f963'),
    ("ca-hepth", 0.05, 1): ('0x1.ffffffffde647p-1', '0x1.1714fefd54ee8p-1', '0x1.9732da2be0162p-3', '0x1.c20bcf38dc05cp-1', 'e6293223d73e5279'),
    ("ca-hepth", 0.2, 0): ('0x1.fffffffff71e8p-1', '0x1.17cf25f32b0f3p-1', '0x1.6a8c09f62052dp-3', '0x1.9a2454349df95p-1', '3db8a8571aef8c76'),
    ("ca-hepth", 0.2, 1): ('0x1.fffffffffbc17p-1', '0x1.1857f1163da7cp-1', '0x1.6e9c8f5df775ep-3', '0x1.a3271a30b6d76p-1', '4c3c37617ff3078a'),
    ("ca-hepth", 1.0, 0): ('0x1.fffffffffd4e4p-1', '0x1.18ac6dffacb31p-1', '0x1.629f52d63b5e2p-3', '0x1.9f7309b4e16ddp-1', '3abf4a4505804b66'),
    ("ca-hepth", 1.0, 1): ('0x1.ffffffffe06c2p-1', '0x1.18c5efc12d414p-1', '0x1.639c14ebb00b4p-3', '0x1.a0699bae10731p-1', '4b9d5f2b39687407'),
    ("as20", 0.05, 0): ('0x1.ffffffffff258p-1', '0x1.1857d550872b0p-1', '0x1.4aa1b061aa7acp-3', '0x1.90954ad369998p-1', 'f4b63cb4535ea356'),
    ("as20", 0.05, 1): ('0x1.fffffffffe2a0p-1', '0x1.25488fbfa3100p-1', '0x1.67ccb324447ecp-3', '0x1.11f5c49e6566ap-1', 'c643be364661c349'),
    ("as20", 0.2, 0): ('0x1.c9056891935dfp-1', '0x1.44b6d03c306c8p-1', '0x1.f2830299ce816p-4', '0x1.745e42f933c96p-6', '89717a2689037911'),
    ("as20", 0.2, 1): ('0x1.b9cf57ba66e29p-1', '0x1.59671c44931ccp-1', '0x1.5a91a65261308p-4', '0x1.10c78cdad34ddp-6', '4c76897daac3e2f0'),
    ("as20", 1.0, 0): ('0x1.caf913197a12cp-1', '0x1.42a90bc783dcfp-1', '0x1.10f7342c9059cp-3', '0x1.3f291f2394f4bp-6', '1e5ab42b2516b81a'),
    ("as20", 1.0, 1): ('0x1.c6b907af0330bp-1', '0x1.48277c6f7b7dap-1', '0x1.f76f1b1b1dfc8p-4', '0x1.2d1147fdcc72bp-6', 'bc47a624104f313a'),
    ("synthetic-kronecker", 0.05, 0): ('0x1.ffffffffeebf2p-1', '0x1.b21c499627624p-2', '0x1.6c4fec46a8c00p-2', '0x1.e6e0426268709p-1', '442ed6fbca7a7b12'),
    ("synthetic-kronecker", 0.05, 1): ('0x1.ffffffffed939p-1', '0x1.eae949d90fb37p-2', '0x1.30d9aba65c061p-3', '0x1.d8acf02847b88p-1', '00af8ab7107ced33'),
    ("synthetic-kronecker", 0.2, 0): ('0x1.fffffffff10ecp-1', '0x1.c604d10c93b7cp-2', '0x1.168d070acc880p-2', '0x1.191099cd28ed0p-1', '970be57ccedc742c'),
    ("synthetic-kronecker", 0.2, 1): ('0x1.fffffffffe639p-1', '0x1.d23ce2925b81ap-2', '0x1.c9d2eaee92d4cp-3', '0x1.b3830ca8c1ffbp-3', 'f188b8e1c9a3e043'),
    ("synthetic-kronecker", 1.0, 0): ('0x1.fffffffff7c30p-1', '0x1.c9687118ff767p-2', '0x1.024da71f759b8p-2', '0x1.cc94523ebdfa8p-6', '440405f816a80aff'),
    ("synthetic-kronecker", 1.0, 1): ('0x1.f1a751092894cp-1', '0x1.e4ea795cc1c1ep-2', '0x1.c2b8a05522404p-3', '0x1.ea03bd83a205ap-14', 'fef7496b5aac26c8'),
}


def _hex(*values) -> tuple[str, ...]:
    return tuple(float(value).hex() for value in values)


@pytest.fixture(scope="module")
def table1_graphs():
    return {name: repro.load_dataset(name) for name in TABLE1_GRAPHS}


def test_pinned_statistics_are_those_of_the_table1_graphs(table1_graphs):
    for name, graph in table1_graphs.items():
        assert matching_statistics(graph) == STATISTICS[name][0]


@pytest.mark.parametrize("key", sorted(KRONMOM_PINS), ids="/".join)
def test_kronmom_fit_statistics_bits(key):
    distance, normalization, feature_set, inputs = key
    estimator = KronMomEstimator(
        distance=distance, normalization=normalization, features=FEATURE_SETS[feature_set]
    )
    statistics, k = STATISTICS[inputs]
    result = estimator.fit_statistics(statistics, k)
    theta = result.initiator
    assert _hex(theta.a, theta.b, theta.c, result.objective) == KRONMOM_PINS[key]


@pytest.mark.parametrize(
    "key", sorted(PRIVATE_PINS), ids=lambda key: f"{key[0]}-eps{key[1]}-seed{key[2]}"
)
def test_private_fit_bits(key, table1_graphs):
    name, epsilon, seed = key
    estimate = repro.PrivateKroneckerEstimator(epsilon=epsilon, delta=0.01, seed=seed).fit(
        table1_graphs[name]
    )
    theta = estimate.initiator
    degrees = np.ascontiguousarray(estimate.release.degree_release.degrees, dtype=np.float64)
    digest = hashlib.sha256(degrees.tobytes()).hexdigest()[:16]
    pinned = _hex(theta.a, theta.b, theta.c, estimate.moment_result.objective) + (digest,)
    assert pinned == PRIVATE_PINS[key]


def _cpu_dispatch():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    return _multiarray_umath.__cpu_features__, _multiarray_umath.__cpu_dispatch__


def _numpy_dispatches_avx512() -> bool:
    features, _ = _cpu_dispatch()
    return bool(features.get("AVX512_SKX"))


@pytest.mark.skipif(
    not _numpy_dispatches_avx512(),
    reason="numpy dispatches no AVX-512 loops here, so the pins above already ran without them",
)
def test_pins_hold_without_numpy_avx512_loops():
    # Reached inside the re-run below only if numpy ignored the variable.
    assert "NPY_DISABLE_CPU_FEATURES" not in os.environ, "numpy kept its AVX-512 loops"
    features, dispatched = _cpu_dispatch()
    # AVX-512 dispatch targets: X86_V4 and up from numpy 2.4, AVX512_* before.
    avx512 = [
        name for name in dispatched
        if features.get(name) and (name.startswith("AVX512") or name == "X86_V4")
    ]
    source = str(Path(repro.__file__).parents[1])
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(avx512),
        PYTHONPATH=os.pathsep.join([source, os.environ.get("PYTHONPATH", "")]),
    )
    child = subprocess.run(
        [sys.executable, "-m", "pytest", __file__, "-q", "-p", "no:cacheprovider"],
        env=env, cwd=Path(__file__).parents[2], capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stdout[-4000:]
    # This test skips in the re-run: numpy dispatched no AVX-512 loops there.
    assert " 1 skipped" in child.stdout, child.stdout[-4000:]

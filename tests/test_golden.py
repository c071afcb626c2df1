"""Golden reports: the sha256 of stdout for fixed CLI runs.

Any change to report bytes shows here: every output, text and JSON, is
compared byte for byte.
"""

import hashlib

import pytest

from klrcalc.cli import main

RUNS = {
    "klr-relations-cycle3": ["verify", "klr-relations", "--quiver", "cycle(3)",
                             "--n", "3", "--bound", "1", "--fuzz", "20"],
    "klr-relations-path3": ["verify", "klr-relations", "--quiver", "path(3)",
                            "--n", "3", "--bound", "1", "--fuzz", "20"],
    # over F_5, whose coefficients are ints in [0, 5): the letter actions
    # compare a term's coefficient with the field's one
    "klr-relations-F5": ["verify", "klr-relations", "--field", "Fp:5", "--n", "3",
                         "--bound", "1", "--fuzz", "20"],
    "alt-presentation-Q": ["verify", "alt-presentation", "--n", "3",
                           "--bound", "1"],
    "alt-presentation-F5": ["verify", "alt-presentation", "--n", "3",
                            "--bound", "1", "--field", "Fp:5"],
    # bound 2: its basis words share deeper y-suffixes than the bound-1 runs
    "alt-presentation-bound2": ["verify", "alt-presentation", "--n", "3",
                                "--bound", "2"],
    "signed-relations-cycle3": ["verify", "signed-relations", "--quiver",
                                "cycle(3)", "--n", "3", "--bound", "1"],
    "signed-relations-path3": ["verify", "signed-relations", "--quiver",
                               "path(3)", "--n", "3", "--bound", "1"],
    # bounds 3 and 2: most rewrite products carry a non-zero y-exponent
    "klr-relations-exponents": ["verify", "klr-relations", "--quiver",
                                "cycle(3)", "--n", "3", "--bound", "3",
                                "--fuzz", "20"],
    "signed-relations-exponents": ["verify", "signed-relations", "--quiver",
                                   "cycle(3)", "--n", "3", "--bound", "2"],
    # n = 4: the first n whose words reach the "psi psi far" family
    "alt-presentation-n4": ["verify", "alt-presentation", "--n", "4",
                            "--bound", "0"],
    "signed-relations-n4": ["verify", "signed-relations", "--n", "4",
                            "--bound", "0"],
    # n = 5: canonical words of up to ten letters, the rows' (w, a, i) order
    # at that depth
    "alt-presentation-n5": ["verify", "alt-presentation", "--n", "5",
                            "--bound", "0"],
    "clifford": ["verify", "clifford", "--n", "2"],
    "clifford-n3": ["verify", "clifford", "--n", "3"],
    "dims": ["verify", "dims", "--n", "1", "--bound", "6"],
    # the degree table of a basis listing, tallied over the printed monomials
    "basis": ["basis", "--n", "3", "--block", "0,1,2", "--bound", "1",
              "--tags", "both"],
    # products through KLR.multiply: y-exponents, both tags and eps, and a
    # psi^2 whose y terms cancel one of the sum (over F5, only mod 5)
    "nf-Q": ["nf", "--n", "3", "psi[1]*(psi[1]*y[3]*e(0,1,2) + eps*y[2]^2*psi[2])"
             " + y[2]*y[3]*e(0,1,2)"],
    "nf-F5": ["nf", "--n", "3", "--field", "Fp:5",
              "(2*psi[1]*y[1] + eps)*(psi[1]*y[2]*e(1,2,0)@G' + 3*y[1]*psi[2]*e(0,1,2))"
              " + psi[1]*psi[1]*y[1]*e(1,2,0)@G' + 4*y[1]*y[2]*e(1,2,0)@G'"],
    "mul-Q": ["mul", "--n", "3", "(psi[1]+y[2])^2*psi[2]",
              "psi[1]*y[1]*e(0,1,0) - eps*psi[2]"],
    "mul-F5": ["mul", "--n", "3", "--field", "Fp:5", "psi[2]*psi[1]*y[3]^2 + 3*eps*y[1]",
               "psi[1]*psi[2]*e(0,1,0)@G + psi[1]*e(1,1,2)@G'"],
    # n = 4: braid corrections inside words of five and six letters, and
    # psi^2 on joined, unjoined (path(3) only) and equal residues
    "nf-n4-cycle3": ["nf", "--quiver", "cycle(3)", "--n", "4",
                     "psi[2]*psi[3]*psi[1]*psi[2]*psi[1]*psi[3]*e(0,1,0,1)"
                     " + eps*psi[3]*psi[2]*psi[3]*psi[1]*psi[2]*psi[3]*y[1]*e(1,0,2,1)"
                     " + psi[1]*psi[2]*psi[1]*psi[2]*psi[3]*psi[2]*e(0,1,0,2)@G'"
                     " + psi[3]*psi[2]*psi[2]*psi[3]*y[2]*e(0,1,1,0)"
                     " + psi[2]*psi[1]*psi[1]*psi[3]*e(0,0,1,2)"],
    "nf-n4-path3": ["nf", "--quiver", "path(3)", "--n", "4",
                    "psi[2]*psi[3]*psi[1]*psi[2]*psi[1]*psi[3]*e(0,1,0,1)"
                    " + psi[1]*psi[2]*psi[1]*psi[2]*psi[3]*psi[2]*e(1,0,1,2)"
                    " + eps*psi[3]*psi[2]*psi[1]*psi[1]*psi[2]*y[3]*e(1,0,2,1)"
                    " + psi[3]*psi[2]*psi[2]*psi[3]*e(1,0,1,1)"
                    " + psi[1]*psi[1]*psi[3]*psi[2]*e(2,1,0,1)@G'"
                    " + psi[2]*psi[1]*psi[1]*psi[3]*e(0,0,1,2)"],
    "mul-n4-cycle3": ["mul", "--quiver", "cycle(3)", "--n", "4",
                      "psi[1]*psi[2]*psi[3]*y[2] + eps*psi[2]*psi[1]*psi[2]",
                      "psi[3]*psi[2]*psi[1]*psi[3]*e(0,1,2,0)"
                      " + psi[2]*psi[3]*y[4]*e(1,0,1,0)@G'"],
    "mul-n4-path3": ["mul", "--quiver", "path(3)", "--n", "4",
                     "(psi[2]*psi[1] + y[3])*psi[3]*psi[2]*psi[3]",
                     "psi[1]*psi[2]*psi[3]*psi[1]*e(1,0,1,2) + psi[2]*psi[1]*e(0,2,1,0)@G'"
                     " + 2*psi[3]*psi[2]*e(2,1,0,1)"],
}

GOLDEN = {
    ("klr-relations-cycle3", "text"):
        "f1192bd92a1b0dfa49200fca34dbe0d1d733795a3c6199a495804c58fcbff237",
    ("klr-relations-cycle3", "json"):
        "cd0ce0b4712b29ff7665bf234e7f81526d199525624674d62ebde9073dd8a59a",
    ("klr-relations-path3", "text"):
        "3e98ba8387ef2bd14fe329e93b9023205077ac11a646fa060fb272324db4012f",
    ("klr-relations-path3", "json"):
        "c27c2bb8afbdb3d2eedc4f980e0e2a2466a19b64651f3bc3c6b34671be429591",
    ("klr-relations-F5", "text"):
        "b713d61808582417678b3d5a5f3dc1cd71d738f72aee2014482f509b37a29fe3",
    ("klr-relations-F5", "json"):
        "2c70bb83abbc8903bd7c34aebb2213fa92605e054cdaa82e9ae6480163d00924",
    ("alt-presentation-Q", "text"):
        "c54a4a00679adeae92834c88116f725633e7f4dd2af82d47259dab4b08b92632",
    ("alt-presentation-Q", "json"):
        "374ea514cc731ed410e18eab5359540812663ec9f30cd5ca11004e96841a3274",
    ("alt-presentation-F5", "text"):
        "9b1b0e4693db7f1982184c2ccc4408af315bd0fe484be3fef0ebf2d61740c40c",
    ("alt-presentation-F5", "json"):
        "47d890c54887de70040256c183d4677037d228b1a1c4541eef3af0f668e194b5",
    ("alt-presentation-bound2", "text"):
        "bc7946c8af925d9df5dcfa51d6ec0781ffb7f4ef193362a2961755baf533eaa2",
    ("alt-presentation-bound2", "json"):
        "e20d98c168ebad6fca94393a45f7dc25301a85c891eaa55ac2149db3c03cefc9",
    ("alt-presentation-n4", "text"):
        "02956d82dce1789c6a8f868ad7eca689bed179a72fffdb5c91667ccbdb8cc3f7",
    ("alt-presentation-n4", "json"):
        "756713ba90e6b5110cb9f5e9f27dcf8a661f4615e4622cbc84906007bf8881db",
    ("alt-presentation-n5", "text"):
        "4bb5b995bc7bc8a12e7bcfd73bd328b8df6a4cbdea87ca179225658c07b26e0d",
    ("alt-presentation-n5", "json"):
        "cdfb820920c0721525834873cd05d2f32a5da61af8788a434ab2d5bb79f0ef06",
    ("signed-relations-n4", "text"):
        "1f36ab092d74b824119bcf247e7555c819079653b57bedc37d63212161be036e",
    ("signed-relations-n4", "json"):
        "0e72c7114bc833777c65752a6acf5e4fe4832b6d17d01c134b1b81a533f39515",
    ("signed-relations-cycle3", "text"):
        "a56867d6b9db7998efd17933cf0545de57c001e11fafdf5acdea5d661fb04b74",
    ("signed-relations-cycle3", "json"):
        "ffe4ceda5731f5987ae6abaecfc44ca4457cfa4caa43659fa0f3c60e281bb41f",
    ("signed-relations-path3", "text"):
        "85d552258d612535039ece2d5f30c1d4adc926cb5354ee051a323223de712fd8",
    ("signed-relations-path3", "json"):
        "84d467979dc9107418dcc75e7c9850d0cbe718c0050331ecad5f09859c4caf7c",
    ("klr-relations-exponents", "text"):
        "37db99488fb1a87c2d55a96ffcec425d69a852b0e8fee2fae1ded2c854667a8f",
    ("klr-relations-exponents", "json"):
        "dd04cc0de57109a574a32dcf7d9a54845808ca432e9e4941ad89454c1cf6f366",
    ("signed-relations-exponents", "text"):
        "cdb208ceb84765e2beac6eb1353b56e8c4923414380d0b584b6d7c6e8e379245",
    ("signed-relations-exponents", "json"):
        "51ec60764f01d2276aef8e1864fe52f776af3b1258bcf4a4ed8794a724486f50",
    ("clifford", "text"):
        "ba4491b2447202d434b68e5b2727879863632be59fece390e6ddd6fb67afa616",
    ("clifford", "json"):
        "49bd44716ed05f9c03bd69eea0381adbdb9622b01d2a952da8bd83fec2a0d782",
    ("clifford-n3", "text"):
        "22dd3707243f360815bf1b670c551f32dd811807369e009838c1b7615305b445",
    ("clifford-n3", "json"):
        "12c2e0c20c881fa6d6279dd94f70619bfe99bb5b57600ec96a9fe5bdb27952c4",
    ("dims", "text"):
        "235fc30930507d2282b7cff41f336b104e77726106b228287bddc93375a24c69",
    ("dims", "json"):
        "1be836c4afafe2a41a479df2c89d08703909a7c6f4129095343d9517b3a4978b",
    ("basis", "text"):
        "bd071e43c8c91942ce69bc8fc5cedebff2e9e1436686af7e6c2255f3e2cf4b7c",
    ("basis", "json"):
        "9a457ae497f7c55db3367e4f7051a7d51e7621afce43a765dcb1b22ac3ca3f99",
    ("nf-Q", "text"):
        "b2c6c28843316bd9c30944e972c63e8b6c7f7205cd7f3d13598d6cb47e530666",
    ("nf-Q", "json"):
        "95310f9a9697a2d0e4c601e66437abe56e453d1375321fb79b4a417f4d6deba2",
    ("nf-F5", "text"):
        "5eb9fd4db33a6996872281bf40a875b28081d6148100889762fb29f60934f258",
    ("nf-F5", "json"):
        "3086241045eca30edd04d92afcdb4225bec789095a4b02030b5e967d27df9f24",
    ("mul-Q", "text"):
        "98207382a6a24af65b410b024d4188dc9cd55b4cc0c9e06169c7a2e8006914cb",
    ("mul-Q", "json"):
        "9eb42cde45ce600a6726ef42d140cb77ac350eb25765c2d4bc433a3de0e0f5c6",
    ("mul-F5", "text"):
        "329815418595ce8171a71de8bcf16c36693f883798c1a7a21454a2630f331972",
    ("mul-F5", "json"):
        "2a83b886d31c6e39f1d811f3448b7e72821cdb48fb97fd7ddc2b8f8a342af525",
    ("nf-n4-cycle3", "text"):
        "4144304802017e832b1f3865261ecd5ac3fa955f0b8840eea6676b979c3b689c",
    ("nf-n4-cycle3", "json"):
        "dc09181223a90dcd9a219355c342f8a91604056e7585a5c3acd71e223be21227",
    ("nf-n4-path3", "text"):
        "5e54f7174632423b6267d81bd68cfc8096f6a06bfe7681876e6d989afe634d8d",
    ("nf-n4-path3", "json"):
        "3269c8a296bd371b13522c179da3397205ff73fd330e47903432c5ab28120e0f",
    ("mul-n4-cycle3", "text"):
        "98d77f9bc37c9dc9c54fab95725ed0fe6f2bbce95b944059dbbe0e2c266f3898",
    ("mul-n4-cycle3", "json"):
        "cd05afa910df288f882185b389f6accfe8bf18763313a6f817e3a5bc49f32892",
    ("mul-n4-path3", "text"):
        "556300ed52ad1ce70730fe7f57a0f2f5a064ca1ee91abbec61eb64fd0321caf1",
    ("mul-n4-path3", "json"):
        "c9ef4474c33dab81f7403ee37796d58ec197d119087c24699d79c22515358ec0",
}


def digest(argv, fmt, capsys) -> str:
    code = main(argv + ["--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_golden_stdout(name, fmt, capsys):
    assert digest(RUNS[name], fmt, capsys) == GOLDEN[(name, fmt)]


"""Byte-exact transcript of the result subcommands.

Each command runs in process through ``cli.main``, bare and with
``--quote-tolerances``, at several signal and reference strengths. Its exit
code, standard output and standard error are pinned together as one SHA-256
digest of ``b"<code>\\n" + stdout + b"\\0" + stderr``, so any change to a
key name, key order, value or message shows here. A change to how the
output is assembled must leave every digest as it is.
"""

import hashlib

import pytest

from phasekit import cli

STRENGTHS = (("0", "1"), ("0.1209", "1"), ("0.1", "1000"), ("1", "10"))

COMMANDS = (
    "kennedy",
    "kennedy --asymptotic",
    "homodyne",
    "homodyne --asymptotic",
    "bsclass --phi-over-pi 0.2",
    "bsclass --optimize --grid-points 32",
    "optimum",
    "montecarlo --rule ml --trials 20000",
    "montecarlo --rule kennedy --trials 20000",
    "montecarlo --rule homodyne --trials 20000",
    # three blocks of trials, at a splitter angle no rule picks by default
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5",
    # argument errors: an angle outside the family, a rule that needs pi/4
    "bsclass --phi-over-pi 0.3",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000",
)


def transcript_argvs():
    for command in COMMANDS:
        for alpha2, beta2 in STRENGTHS:
            argv = f"{command} --alpha2 {alpha2}"
            if "--asymptotic" not in command:
                argv += f" --beta2 {beta2}"
            yield argv
            yield argv + " --quote-tolerances"


def record(argv: str, capsys) -> tuple[bytes, str]:
    code = cli.main(argv.split())
    captured = capsys.readouterr()
    raw = b"%d\n" % code + captured.out.encode() + b"\0" + captured.err.encode()
    return raw, hashlib.sha256(raw).hexdigest()


TRANSCRIPT_DIGESTS = {
    "kennedy --alpha2 0 --beta2 1":
        "2eb32b19f1f7cc00a916a5cd2a9198b220ce09cc4596f1784a26ffb1da888120",
    "kennedy --alpha2 0 --beta2 1 --quote-tolerances":
        "ee0a295e76ea17f8f0c6e4a5df516d9f706fea04efb1c33b5c10b68080e6512b",
    "kennedy --alpha2 0.1209 --beta2 1":
        "6132ebb3790fc2f195466346e51e63131f051648357779e20c9d0dcf8ec15775",
    "kennedy --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "61030a03f0579a68e76ea58ee62446eeb851ce00c2e68318960731c8d2a188ba",
    "kennedy --alpha2 0.1 --beta2 1000":
        "460db07b8e0391ef82d0b762c7b2ad8017e18eacad3b7bf33720e66e5514aa56",
    "kennedy --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "5752771ce0623bf5a450acc763f8a3af69ccfb9386a6937b151608efe45beeba",
    "kennedy --alpha2 1 --beta2 10":
        "83285ac03d894887dc966ea5579a31a4f2c820c6ac37319beda22fb096acb51f",
    "kennedy --alpha2 1 --beta2 10 --quote-tolerances":
        "b9bb1ae226ad9aeac8831c3462b000cb6500b02a07bad58c30c592215db30513",
    "kennedy --asymptotic --alpha2 0":
        "2eb32b19f1f7cc00a916a5cd2a9198b220ce09cc4596f1784a26ffb1da888120",
    "kennedy --asymptotic --alpha2 0 --quote-tolerances":
        "8a4181e0700170944636051a4bc00e9f56902bd68e591beceb68019117af350f",
    "kennedy --asymptotic --alpha2 0.1209":
        "f00430dc7bccd19dcb6e9ab7b239d460f94dcfc7322fb026736973bcfed602dd",
    "kennedy --asymptotic --alpha2 0.1209 --quote-tolerances":
        "5e56ad1637b82a6c694d7e0deaa497a3e1b28cb47cca884a472dc1b0c01a4361",
    "kennedy --asymptotic --alpha2 0.1":
        "8792edc062dac59f0831f50ba3b10978547eedab2ef8bb5a0a6afa0f7bbdfe5a",
    "kennedy --asymptotic --alpha2 0.1 --quote-tolerances":
        "feded114502b0d0073092c0cf990215888d571f25722abd4c975a4c4b59c73c2",
    "kennedy --asymptotic --alpha2 1":
        "a07564711a91d37cb8340b70e3fb0b12a32385d221217e8f5c0573f468536992",
    "kennedy --asymptotic --alpha2 1 --quote-tolerances":
        "924cf1c60adca241d8b238c295bfd155240cba9516d4f9cbd86f3bbca46d2542",
    "homodyne --alpha2 0 --beta2 1":
        "2eb32b19f1f7cc00a916a5cd2a9198b220ce09cc4596f1784a26ffb1da888120",
    "homodyne --alpha2 0 --beta2 1 --quote-tolerances":
        "89aec01d9bd0a60a3a48d38bc8754cac97fd8921f304d8d90dbbe9e114745bbd",
    "homodyne --alpha2 0.1209 --beta2 1":
        "417828cfb9acc65ced35a77759a992afc76c6e18981841ff1da52ebfa6b30573",
    "homodyne --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "b8f373c3136fce7ee1ce13d281a805e2af771a57d61c814352856f72f96bf8f9",
    "homodyne --alpha2 0.1 --beta2 1000":
        "c3c77fef81d106e044365536f6cb1781d8bcb717ec4162aaa5928b8abfceec2c",
    "homodyne --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "4578b25bc5bdd3e5c9dfbd60c9548bf630d1df12c94691a9abb568a049eac928",
    "homodyne --alpha2 1 --beta2 10":
        "6f3259bd5c20d6b20663893930d7b766ca59e61158983763d727cacf2fdafce7",
    "homodyne --alpha2 1 --beta2 10 --quote-tolerances":
        "3e54fbcd7f129728fde353498728ed81df838ca190ba1b25ef0af341336ce78c",
    "homodyne --asymptotic --alpha2 0":
        "2eb32b19f1f7cc00a916a5cd2a9198b220ce09cc4596f1784a26ffb1da888120",
    "homodyne --asymptotic --alpha2 0 --quote-tolerances":
        "1aebe3b7b0214b2a3cd2f928868e39d47549422ab09a3dc6a2c65a1cd0bf74c1",
    "homodyne --asymptotic --alpha2 0.1209":
        "19a9d38a986adbace5b49f6568e981c96885ad1824a302a6fe5c7eab8a38f260",
    "homodyne --asymptotic --alpha2 0.1209 --quote-tolerances":
        "c75fe63e058a125bdfc38c9b5dd16092d962c23dee91108992107668340636ce",
    "homodyne --asymptotic --alpha2 0.1":
        "90baae21ef076cc70c0710f061fea6cb175a75a896814edbf1aac2ba392dc635",
    "homodyne --asymptotic --alpha2 0.1 --quote-tolerances":
        "59d99e80391c3757fc92715e2869b53a31fbe27633e78bab1659695778b38492",
    "homodyne --asymptotic --alpha2 1":
        "95248e2b0f6e2f98aeb3767f7a5cfda154407ac58824c215556d233424fb7efc",
    "homodyne --asymptotic --alpha2 1 --quote-tolerances":
        "9e0c885083def4cd5cbe957a82547425198b331dcd993100c744b16764467846",
    "bsclass --phi-over-pi 0.2 --alpha2 0 --beta2 1":
        "2eb32b19f1f7cc00a916a5cd2a9198b220ce09cc4596f1784a26ffb1da888120",
    "bsclass --phi-over-pi 0.2 --alpha2 0 --beta2 1 --quote-tolerances":
        "7fa2a298484ecde71bebe3cd8410b7b370b868969a311d8a6fb265e28a3cd659",
    "bsclass --phi-over-pi 0.2 --alpha2 0.1209 --beta2 1":
        "3bb4db7a161cf4915d2dbcf22b91e3d8ff3e2cfbb0fa24bd95a248395005d775",
    "bsclass --phi-over-pi 0.2 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "12525e286a5feb517759314b951cac81ec93fb54787e5502c208d3fa40361e65",
    "bsclass --phi-over-pi 0.2 --alpha2 0.1 --beta2 1000":
        "d585c6046a0a43af3ab75ee948d5024afd61cf00c8a5a2d9b5bfaf43bd767ac1",
    "bsclass --phi-over-pi 0.2 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "6f98b16168b689f9ecf1c7485bac22b6a4be6eba94ecdceaa6a77cc684472ec0",
    "bsclass --phi-over-pi 0.2 --alpha2 1 --beta2 10":
        "76e5f0f8238e4e2e7802c65d53b0b527edda5314b3354b702d84d1a9bfc889b0",
    "bsclass --phi-over-pi 0.2 --alpha2 1 --beta2 10 --quote-tolerances":
        "098fbbd009328cd0092e3dc19f8d321ce6d1e15371543c4732e2e42d8def3481",
    "bsclass --optimize --grid-points 32 --alpha2 0 --beta2 1":
        "43c8ae852c9d1d64546dc1e8efcc2ea1772bfbca449782837082202131849f07",
    "bsclass --optimize --grid-points 32 --alpha2 0 --beta2 1 --quote-tolerances":
        "2e319bdb2ec6cc38c804d61bfff84fb0de16be8c638779858c8ef8011ed2dfab",
    "bsclass --optimize --grid-points 32 --alpha2 0.1209 --beta2 1":
        "d442efe77e03d6dca334ef8947f9d9940097a6eb1fd2785d63507bfab8cb8b1a",
    "bsclass --optimize --grid-points 32 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "11fe8a4910623f8df6b09ddc67d592e3c0f4d1eb42bec4550b53d99a2e2d1ade",
    "bsclass --optimize --grid-points 32 --alpha2 0.1 --beta2 1000":
        "da28ccf929e0cf1eebcd0d42be001e68e7739ad7969b3ec7cc6ec4c566d1aa7c",
    "bsclass --optimize --grid-points 32 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "e3cbee93f648d96cfbab653533a2eaf0f3bbc83d93020e96e7142b8328444908",
    "bsclass --optimize --grid-points 32 --alpha2 1 --beta2 10":
        "083e0e5ad9bb84a42dd184213bb4053ca6e9e745cd308142181f80bbf2fe7227",
    "bsclass --optimize --grid-points 32 --alpha2 1 --beta2 10 --quote-tolerances":
        "20ed643096035d50b70fba7fead434350e9af4902963907090ba0d10bb5ce9cf",
    "optimum --alpha2 0 --beta2 1":
        "8af0147a9061a77ffc8f55b51b2f2f525798e997a0a4ca9dda98e1b4a1cfc84c",
    "optimum --alpha2 0 --beta2 1 --quote-tolerances":
        "2255686d073388c7bdff9120a806fab900c47105c1cff6b7bb7845157a70c924",
    "optimum --alpha2 0.1209 --beta2 1":
        "d08e07b88612b5b8605427debcee74122dfb652ec63d5c22d230c616f1ebce4e",
    "optimum --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "972561c8055b86a5c9ad8344789d3090e39a8d55f09dd7b11ec6f31be79c0bb7",
    "optimum --alpha2 0.1 --beta2 1000":
        "7bc270c3e9280c82f1bdc42442b69e2c98eb4329e4c229b41380709fc63bc92b",
    "optimum --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "3fb93de36644c854763847e6fe9a0a3a04bb69b1a1c73327f0bbf448cdf88080",
    "optimum --alpha2 1 --beta2 10":
        "d97700e5e327ba0259caa1162779266aa8cb42e264b0bb9cdee68ce35950a3c4",
    "optimum --alpha2 1 --beta2 10 --quote-tolerances":
        "643b124d00bfa198819a07c1a866b00bebbf573e469ffdc7aafb29505d02bc76",
    "montecarlo --rule ml --trials 20000 --alpha2 0 --beta2 1":
        "418246ffe6a7f21e460e52705d9e27fa690464919519cf532da8de6fef56b587",
    "montecarlo --rule ml --trials 20000 --alpha2 0 --beta2 1 --quote-tolerances":
        "117e13992d0cf506213daa7b4a1f6f4bd25437bd1a18e881aeece874e5b48123",
    "montecarlo --rule ml --trials 20000 --alpha2 0.1209 --beta2 1":
        "c942203d747505fae681f8d7f9778a2cf319f64b58a07307d23c5ac91c7e42f9",
    "montecarlo --rule ml --trials 20000 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "12539b25a979ec5f950e3329dd8a834e9085310fda69c8f8d4d9a4c6274f09b3",
    "montecarlo --rule ml --trials 20000 --alpha2 0.1 --beta2 1000":
        "539251f8ecbc79d7b0fb7543a73334e753e75d6556f08921ef54fe81371e2895",
    "montecarlo --rule ml --trials 20000 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "21f2cd652afb5e6bc41aa3c2b2e37c0fe7f64f4f6131dfda82b4b634f0590eea",
    "montecarlo --rule ml --trials 20000 --alpha2 1 --beta2 10":
        "b8c589252458b2ba37a3c7b75c55eebe48e30b38de27ae3bc81504599b586cff",
    "montecarlo --rule ml --trials 20000 --alpha2 1 --beta2 10 --quote-tolerances":
        "d89fd4004f86b2f94b8150fed1f2b38e2b77eaeddad0f3008fb3b213d389ea91",
    "montecarlo --rule kennedy --trials 20000 --alpha2 0 --beta2 1":
        "56050b12b7bb824cf2d531f032647eec148cf9e20f7e517e7d88be36282438d5",
    "montecarlo --rule kennedy --trials 20000 --alpha2 0 --beta2 1 --quote-tolerances":
        "205877359f5b7be138dceedcab40cbfa2cee4436fa6993beb539befbd16eb376",
    "montecarlo --rule kennedy --trials 20000 --alpha2 0.1209 --beta2 1":
        "dca2a6d19354486d3acfc98e45f177b97cd1e6af478b460e7743012485214f4b",
    "montecarlo --rule kennedy --trials 20000 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "fa8565e8b94ae069f231ef2857084abe7be1e8171fd697e9d895b0055e484451",
    "montecarlo --rule kennedy --trials 20000 --alpha2 0.1 --beta2 1000":
        "5fe0d13727089fb8ec983fb986f3b6491aa0ca2cb16493f29b70718f5557a028",
    "montecarlo --rule kennedy --trials 20000 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "b7f8eb852d40f88391d2a69bc652f4c54c218075a2c5de0dbc8a88a4013e538f",
    "montecarlo --rule kennedy --trials 20000 --alpha2 1 --beta2 10":
        "78d5e178fb8228b86a7d3ea5e3935b130c9bc7047fd13183918a5d0c99ae7ed5",
    "montecarlo --rule kennedy --trials 20000 --alpha2 1 --beta2 10 --quote-tolerances":
        "a4fdd3d2d3607eafd1b0ca3b705424cb35e29faff328622791a8b89cf3a34dff",
    "montecarlo --rule homodyne --trials 20000 --alpha2 0 --beta2 1":
        "49f5bcbc8565d7781336ed0748661ff0226c0323e588d461a8335a0c69e1c68e",
    "montecarlo --rule homodyne --trials 20000 --alpha2 0 --beta2 1 --quote-tolerances":
        "3f31b548b435c5dd3f5109dc193e736c73e527a90924becc8c6d1cc508f62807",
    "montecarlo --rule homodyne --trials 20000 --alpha2 0.1209 --beta2 1":
        "c942203d747505fae681f8d7f9778a2cf319f64b58a07307d23c5ac91c7e42f9",
    "montecarlo --rule homodyne --trials 20000 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "04f5b5e050335cb0c9fde07541498d31285dafc5150bed239cfffd62cd5a2c27",
    "montecarlo --rule homodyne --trials 20000 --alpha2 0.1 --beta2 1000":
        "539251f8ecbc79d7b0fb7543a73334e753e75d6556f08921ef54fe81371e2895",
    "montecarlo --rule homodyne --trials 20000 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "cdf689f0e06ed33426fa22367f65ed558a9ee28896300a7aaf7618673ba30cad",
    "montecarlo --rule homodyne --trials 20000 --alpha2 1 --beta2 10":
        "b8c589252458b2ba37a3c7b75c55eebe48e30b38de27ae3bc81504599b586cff",
    "montecarlo --rule homodyne --trials 20000 --alpha2 1 --beta2 10 --quote-tolerances":
        "2f389a234644ba5302b7442a5205a9e327aa755d661b9613833efd20a012d411",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 0 --beta2 1":
        "301fe78062037bf6fbb06a04c02b2fe68b21fe7575749af8615de187b938dc87",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 0 --beta2 1 --quote-tolerances":
        "c701aa2bc3d215c7174f9cdb2a4c565c0c4d9cca73f11bd57d10abffaae971cb",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 0.1209 --beta2 1":
        "c59169afbca728c9b006d589883e6de71da1345154608dbcb5e084fa74cc3b86",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "1068a67a44a4f88164f0c4a44a309ef40c5eaef03e94ff04eec8ff553b740d2b",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 0.1 --beta2 1000":
        "5a4629b066fcdc7ba9380f5fe8e41f3506cf7c56299726bfd948c862e839945e",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "18f3603d83da2ce10298de7fd6e9a74f22c75adaf9429c15a5dacd56812fc96f",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 1 --beta2 10":
        "2480683a3b722756162b546851044c01b19f066052194b580784a2d5199cbe01",
    "montecarlo --rule ml --phi-over-pi 0.1 --trials 140000 --seed 5 --alpha2 1 --beta2 10 --quote-tolerances":
        "2906acf40186e20cec1bb5d79db4f642b305fd7a411449f2864c87d26f45d403",
    "bsclass --phi-over-pi 0.3 --alpha2 0 --beta2 1":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 0 --beta2 1 --quote-tolerances":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 0.1209 --beta2 1":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 0.1 --beta2 1000":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 1 --beta2 10":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "bsclass --phi-over-pi 0.3 --alpha2 1 --beta2 10 --quote-tolerances":
        "28b7800b60a6d3edc3a23ea133094a16aa8b392b6297c5120a1615cd622d6b48",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 0 --beta2 1":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 0 --beta2 1 --quote-tolerances":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 0.1209 --beta2 1":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 0.1209 --beta2 1 --quote-tolerances":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 0.1 --beta2 1000":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 0.1 --beta2 1000 --quote-tolerances":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 1 --beta2 10":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
    "montecarlo --rule homodyne --phi-over-pi 0.2 --trials 20000 --alpha2 1 --beta2 10 --quote-tolerances":
        "d2b386013716c4edc2bd0e5c4f2737bdbe0acd58db89a9435b47229aaf016236",
}


@pytest.mark.parametrize("argv", list(transcript_argvs()))
def test_transcript_is_pinned(argv, capsys):
    raw, digest = record(argv, capsys)
    assert digest == TRANSCRIPT_DIGESTS[argv], raw.decode()

"""Byte goldens of the command line.

Every subcommand in all three formats on A2, B2 and G2 (plus the E6
jconstrain cases and the oracle replays) is pinned by exit code and the
sha256 of its stdout; the usage-error paths are pinned by their full
stderr.  The values were recorded from the CLI before its rendering was
refactored; any change to them is a change of the output contract.
Config files named in an argv are written from CONFIGS into the working
directory first.
"""

import hashlib
import json

import pytest

from gammaflag.cli import main

CONFIGS = {
    'a2_kac.json': {"kac": {"degrees": [1], "exponents": [1]}},
    'b2_kac.json': {"kac": {"degrees": [1], "exponents": [2]}},
    'g2_kac.json': {"kac": {"degrees": [3], "exponents": [1]}},
    'invalid_model.json': {"type": "A2", "prime": 3, "brauer": {"ind": {"0": 1, "1": 3, "2": 9}}},
    'partial_model.json': {"type": "A2", "prime": 3, "brauer": {"ind": {"0": 1}}},
    'a2_model.json': {"type": "A2", "prime": 3, "brauer": {"ind": {"0": 1, "1": 3, "2": 3}}},
    'kac_mismatch.json': {"kac": {"degrees": [1, 1], "exponents": [1, 1]}},
    'kac_unsorted.json': {"kac": {"degrees": [2, 1], "exponents": [1, 1]}},
    'bad_format.json': {"format": "xml"},
}

# argv (without --no-banner) -> (exit code, sha256 of stdout)
STDOUT = {
    'rootinfo --type A2 --format json':
        (0, '5c39d5219894fe25d81ffe18c02aabdd9c3380743e65fc37091c0beb064b30fd'),
    'weyl --type A2 --format json':
        (0, 'e321d0246b2cd7e8d6d1c32070115241e028ea49004ed3da3ffd426b05877353'),
    'weyl --type A2 --count-by-length --format json':
        (0, 'faf51dce9a4104bde10c150fcafd44df4f2b1f4dac932ed8ba635df67912b1d1'),
    'weyl --type A2 --max-length 2 --format json':
        (0, '3f285d2d63ffc56bf55a5cbc75e0052ae63415c04a10aaccb66389f0fce94a93'),
    'chow --type A2 --format json':
        (0, '5f564ab0027e77c34fec538eb8287ff28a88692bc6d92fe21dbf3ec9bd8c4bb1'),
    'chow --type A2 --basis --products --format json':
        (0, '7446f1c20522ad3f20884c9a51384cd233540af785cd22d19a4afef02a388dc7'),
    'steinberg --type A2 --format json':
        (0, '9a2c7acbfd22c1c9b45d13acd809b1739c35946744b6ee6ac6a62a3896a0a80a'),
    'restriction-image --type A2 --prime 3 --degree 2 --format json':
        (0, 'e0c2d074b764dea3111758fc27f755f70617a0c15da3637cc871b94c9ebbe8bc'),
    'restriction-image --type A2 --prime 3 --index 9 --degree 2 --format json':
        (0, '7dcb92236096d7f10f461a44246b18a0a60c02b6345d72f663ff7f5080537997'),
    'jconstrain --type A2 --prime 3 --index 9 --config a2_kac.json --format json':
        (0, '140eee18d6d1f3e2f4f4c0738bc0fac186eef4952bf345b895df8fd366478707'),
    'verify-theorem --type A2 --prime 3 --index 9 --format json':
        (0, 'cafd40df37f52371e6e7d62ffe4efe3f23da7898e2519312c7bfe8df2301e8ad'),
    'rootinfo --type A2 --format tsv':
        (0, 'ab041f5de1c63b31bae34db6015c07323f6322b5f97a8b03091c219947e79986'),
    'weyl --type A2 --format tsv':
        (0, 'eedb408f3e41ae8dddf7b3b8e6fdf4bb3bd56a387a3b31844160cc8d7086c472'),
    'weyl --type A2 --count-by-length --format tsv':
        (0, 'cd21f0a58d08e96a1c135770079237357e005169009d2fcc69c42730893994b9'),
    'weyl --type A2 --max-length 2 --format tsv':
        (0, 'c5bc57ac520f3e60c847e861d31c4c277c968198d6f0dcbf8fd22ab600341938'),
    'chow --type A2 --format tsv':
        (0, '43ab158443164ddc142882f21c0a6b4f57bd9f31ccee4bef7a8188ba8f0033f5'),
    'chow --type A2 --basis --products --format tsv':
        (0, '43ab158443164ddc142882f21c0a6b4f57bd9f31ccee4bef7a8188ba8f0033f5'),
    'steinberg --type A2 --format tsv':
        (0, 'e35dcbb11f1261a23138b6c7cfaed857ab635be43a9694e057418c2da878b1f6'),
    'restriction-image --type A2 --prime 3 --degree 2 --format tsv':
        (0, 'e33015c52f93a414663777814c6b4ffca47ca763d0e27d72bb82bd61801c3917'),
    'restriction-image --type A2 --prime 3 --index 9 --degree 2 --format tsv':
        (0, 'ca3df3d2e69730aa481eb373df063c756e2e89042d3680074822ab90502f2bbd'),
    'jconstrain --type A2 --prime 3 --index 9 --config a2_kac.json --format tsv':
        (0, '715f56cb7bf77088f47a03180a44bc89b8eebb20e05345587c7b14c5d820685c'),
    'verify-theorem --type A2 --prime 3 --index 9 --format tsv':
        (0, '7fc842e38208b82eb6af2e006780e6760f1db5be4abb6e066870f2dff30e0ba0'),
    'rootinfo --type A2 --format pretty':
        (0, '8ae06767fe7b781c4c69dc02853c5713bf5f58acbefcbde8ad4d171daf36ab64'),
    'weyl --type A2 --format pretty':
        (0, '1c2a1d90e04c0ff659c284898ee561a4875dd0c2da802c2facebd7afd054dec7'),
    'weyl --type A2 --count-by-length --format pretty':
        (0, '76668bf65ab07399778ed7d3cd58a3a3be2835888439c48e20121351bc069b60'),
    'weyl --type A2 --max-length 2 --format pretty':
        (0, 'ad9327e1e842c37c3b3c514d4f1347117f8eea20bea4cd340ca4d77cfacda6d9'),
    'chow --type A2 --format pretty':
        (0, 'd7cdd9d315a6ce4e374b543249f8f9a94b56f06b18fd47b303a0651e74a84165'),
    'chow --type A2 --basis --products --format pretty':
        (0, 'aff4c81db39f8111001664281a3926bde95c6f4a32444cc02e98cdb1108eb0c4'),
    'steinberg --type A2 --format pretty':
        (0, 'b5ee272e53b179aed084fb70c70590f4ea11ef0c931b87d37fe213b552213482'),
    'restriction-image --type A2 --prime 3 --degree 2 --format pretty':
        (0, 'c123a74b30938618bc715418ee384036c338c47540e8787c929cb51a7224de37'),
    'restriction-image --type A2 --prime 3 --index 9 --degree 2 --format pretty':
        (0, '4e0310fa7b2f8e3e6c04dc05e96dea416f059c633130be4f29550195919f4b3b'),
    'jconstrain --type A2 --prime 3 --index 9 --config a2_kac.json --format pretty':
        (0, '67b2d47d4c01aef625b01971c5e8a839421b77caee47364b25307f820137c797'),
    'verify-theorem --type A2 --prime 3 --index 9 --format pretty':
        (0, 'f28b0d249ff0ebc1a4f2fc86e4cae8d4066fd81dea6e3ce8843e2ee9db8d6266'),
    'rootinfo --type B2 --format json':
        (0, 'b06baa33e7b19fc6f83b4bff3e40c46c73c90233b4f886f2b22d0358e678847c'),
    'weyl --type B2 --format json':
        (0, 'a578481fa5fc7ff8048c93ea23dee9b48cc093fcf7aecf9ef307816cc03e785c'),
    'weyl --type B2 --count-by-length --format json':
        (0, 'fcd15b37d7fb685ab5153f65d298d860c2c87bd63e5b71c1a548f6bc56705baf'),
    'weyl --type B2 --max-length 2 --format json':
        (0, '2cd9c36b3becf951fa118ef1ae880cf55493699b3a973143c892c8a4de11ded6'),
    'chow --type B2 --format json':
        (0, '9820c169f827e76390e021752514d2ac2cf81577f5a5c11914a7d94545d59248'),
    'chow --type B2 --basis --products --format json':
        (0, 'eb984357eeef61ebbabade8216247f75e04cee92a63c77ab89407811016916d5'),
    'steinberg --type B2 --format json':
        (0, '7a167c535d85b6c53e5753a272a888b13336f26ba4ce71f8f94334c2aa9b51ac'),
    'restriction-image --type B2 --prime 2 --degree 2 --format json':
        (0, 'b544382ef42ef806b883dcdd3266e9ccde906bf610442adfca145ceaad74c6d1'),
    'restriction-image --type B2 --prime 2 --index 4 --degree 2 --format json':
        (0, '5f59e053ff6e9b4c1256d41b4bc9b7feb26b2465401a82c4a30db3024cdd0529'),
    'jconstrain --type B2 --prime 2 --index 4 --config b2_kac.json --format json':
        (0, 'f70e00aa459adf383df9db4cd1cd7a9e050b0e107f0b5c3aee922a4a94ec35a7'),
    'verify-theorem --type B2 --prime 2 --index 4 --format json':
        (0, 'b12a20134270a2fa244a6263ce6638271e56b72ecb194edce37f23eccce04d17'),
    'rootinfo --type B2 --format tsv':
        (0, '7bb0a2ca3482023a4372b82199482b70cc8bb07ec31f1d3be1328946f480c39e'),
    'weyl --type B2 --format tsv':
        (0, '124224c17070606ca610de838953b16d5e6624cb231a37fded2228bdb141af0c'),
    'weyl --type B2 --count-by-length --format tsv':
        (0, 'f717a4597450775f0f417e66e68bfd66626c0172cf6d18f11f07875df4893959'),
    'weyl --type B2 --max-length 2 --format tsv':
        (0, 'b6fe2649a2358b32dc7dbe14078b64f85e215b7e1e3024f4296c3b8e2bcd4b87'),
    'chow --type B2 --format tsv':
        (0, '813d051fc36a550682d6d37020247faba4692a278cc5a5ecedab73d7c6e68f70'),
    'chow --type B2 --basis --products --format tsv':
        (0, '813d051fc36a550682d6d37020247faba4692a278cc5a5ecedab73d7c6e68f70'),
    'steinberg --type B2 --format tsv':
        (0, '0c00747f4e6f57abae54421ee98e417051274df9926e95b06c4069aad7d7ad09'),
    'restriction-image --type B2 --prime 2 --degree 2 --format tsv':
        (0, 'e33015c52f93a414663777814c6b4ffca47ca763d0e27d72bb82bd61801c3917'),
    'restriction-image --type B2 --prime 2 --index 4 --degree 2 --format tsv':
        (0, 'ca3df3d2e69730aa481eb373df063c756e2e89042d3680074822ab90502f2bbd'),
    'jconstrain --type B2 --prime 2 --index 4 --config b2_kac.json --format tsv':
        (0, '9e801b3e5e6a7b23d01a22356d3ba4306460e22e4db722088c57626c8ee42995'),
    'verify-theorem --type B2 --prime 2 --index 4 --format tsv':
        (0, 'a6ff28ab72b1ca7319daedc53fdd3edfdc616a905e80e3d4f6866c5933d6e2c3'),
    'rootinfo --type B2 --format pretty':
        (0, 'f9f275afd8ca8b9dc9ae4371b44b75527c0654a74eeb035ce2d5bf36965156fd'),
    'weyl --type B2 --format pretty':
        (0, '6602d2078807371296aeaf99893ba051bcd32bd6de02e68b2f0d84aac560bd13'),
    'weyl --type B2 --count-by-length --format pretty':
        (0, '61bbf5930a14c7ac54d49c3f2061628fd8b6836b8f8e0360231011ba3c16fb9a'),
    'weyl --type B2 --max-length 2 --format pretty':
        (0, '16080a6981a9bb64c064ba7461078f87150307c4ae858e6b4e58c32cfabe6750'),
    'chow --type B2 --format pretty':
        (0, '7d894fb8aaf6c5794966528db856172be3b89d47e1369f8b87789367a476f508'),
    'chow --type B2 --basis --products --format pretty':
        (0, 'f1b5bc81511e8162b24c7512628ad67800af8edf051a7af055b12c3f4cbfd0ea'),
    'steinberg --type B2 --format pretty':
        (0, 'c6df9a47857101202b64816fbff7180df8f616c6f77c9e7481b6e5169e47dd85'),
    'restriction-image --type B2 --prime 2 --degree 2 --format pretty':
        (0, '18c727a139a09f6a143a4b57e55cf38763de0e8c05e7f58ba7f106b6ab7992a2'),
    'restriction-image --type B2 --prime 2 --index 4 --degree 2 --format pretty':
        (0, '9145e34468c3e89e951db1fb6ba433d52040e9bf5c79000d3e2792ecaef70aef'),
    'jconstrain --type B2 --prime 2 --index 4 --config b2_kac.json --format pretty':
        (0, 'f6e87037198f555e5dedfb068db03d6aaacf00a5c408839d69ae361f26f6f688'),
    'verify-theorem --type B2 --prime 2 --index 4 --format pretty':
        (0, '14b85148a7caa00979cdedd1bf0b3c45ea66b54bfd4f1a98dd65577c7541817c'),
    'rootinfo --type G2 --format json':
        (0, 'd8353e215d3c77d6782a39c31242002cc2faca450f7cb382a04c0fa33a4bfb55'),
    'weyl --type G2 --format json':
        (0, '96f34f104d01c958bd2b925d378b7b952b68080209826b58b3e6cfc4cf86d961'),
    'weyl --type G2 --count-by-length --format json':
        (0, 'd095d1ceaa965ae4c5b33346040bfc37548ba298ca33a48f04db1f81577814a9'),
    'weyl --type G2 --max-length 2 --format json':
        (0, 'a6853565fce3daf19470fe2e4272668ccf48b0ab3f33551f32dd0bbaa2478115'),
    'chow --type G2 --format json':
        (0, '2f4793a53369717eb409f58c12c604e9955df3e7e2a323c44beda2ab007f3f25'),
    'chow --type G2 --basis --products --format json':
        (0, 'db380d4ee855f2e569217e9fd9155885ef8a79c11cd9ec6215a8218c303c3464'),
    'steinberg --type G2 --format json':
        (0, '48f52ae7d44967dc0a357b49b436129aca40d892747666f6fd9154bec6f8cd32'),
    'restriction-image --type G2 --prime 2 --degree 2 --format json':
        (0, '01bbe8556b2e914b48fe65830959726d8bf0c9b802e6d505133116fdf252abdf'),
    'restriction-image --type G2 --prime 2 --index 2 --degree 2 --format json':
        (0, '01bbe8556b2e914b48fe65830959726d8bf0c9b802e6d505133116fdf252abdf'),
    'jconstrain --type G2 --prime 2 --index 2 --config g2_kac.json --format json':
        (0, 'f8ac43c6a0be98933112230a5281a3863c25351370fafe5bee99f4b0acef462f'),
    'verify-theorem --type G2 --prime 2 --index 2 --format json':
        (0, '14bf9fcc940445ad96b374b3f3be9e2f43341ceff4b7bc974ef22d1ac43ef26f'),
    'rootinfo --type G2 --format tsv':
        (0, '2a45aa75a8d05d275edbfb2891b7c6bb9ef3dbd8a59637447ecb3c7c8a19a64b'),
    'weyl --type G2 --format tsv':
        (0, 'e3a80121d16f047ff6a9ba61a282a43e96c4fb9f434836779c3c3c9e5f6e3a9e'),
    'weyl --type G2 --count-by-length --format tsv':
        (0, 'cd4d1afdaf2feb09964e3609bc68510a601639df4019fce6bdf83481efc5c179'),
    'weyl --type G2 --max-length 2 --format tsv':
        (0, '25823994c6c3393fc5550175f2af6ee032b9c7ff6288b6ce0d70ef1a376513a8'),
    'chow --type G2 --format tsv':
        (0, '813d051fc36a550682d6d37020247faba4692a278cc5a5ecedab73d7c6e68f70'),
    'chow --type G2 --basis --products --format tsv':
        (0, '813d051fc36a550682d6d37020247faba4692a278cc5a5ecedab73d7c6e68f70'),
    'steinberg --type G2 --format tsv':
        (0, 'a5bdaa3806262a29da57880449fb9a66be7e47eae80d3d4f96c476b3fbd80b4e'),
    'restriction-image --type G2 --prime 2 --degree 2 --format tsv':
        (0, 'e33015c52f93a414663777814c6b4ffca47ca763d0e27d72bb82bd61801c3917'),
    'restriction-image --type G2 --prime 2 --index 2 --degree 2 --format tsv':
        (0, 'e33015c52f93a414663777814c6b4ffca47ca763d0e27d72bb82bd61801c3917'),
    'jconstrain --type G2 --prime 2 --index 2 --config g2_kac.json --format tsv':
        (0, 'ce0785aa64d36697ad2ef2ac7f5ea46aaea39dde2ae99dc01f2b243f9d2ce615'),
    'verify-theorem --type G2 --prime 2 --index 2 --format tsv':
        (0, '8fcb8a4822219b810a9fffe763cd714410fd0e1935e8bc23109dfdd2a3b99415'),
    'rootinfo --type G2 --format pretty':
        (0, 'e4a447a07f47972ea1e3fa5d61c654595c6ac020bfe8b2dee34a5598439d904e'),
    'weyl --type G2 --format pretty':
        (0, '30b3bfaf0d0914b773cc596896c3cfd25479ea27406beec001f4b76524d6007e'),
    'weyl --type G2 --count-by-length --format pretty':
        (0, 'a60b35a1d957491ca27b943da4f89cd4ffd2b79bc6a5e2c266f2bb4b6981ca4e'),
    'weyl --type G2 --max-length 2 --format pretty':
        (0, 'ed03dcde07f1d47966a58e87835ac8ffbe160a036703eca68a8e97b442b84a13'),
    'chow --type G2 --format pretty':
        (0, '33f895c944f76220a726932b4711f13286bd2034f27ac70e321c2f63ac26a689'),
    'chow --type G2 --basis --products --format pretty':
        (0, '1388802f989108f8ede7b8a08156b889c89b03b1c841404904db5d89d4172b45'),
    'steinberg --type G2 --format pretty':
        (0, '4bffffbad513c4a0f3b94a35a7dc71782117b238587b69f682e1e4281f73c9d9'),
    'restriction-image --type G2 --prime 2 --degree 2 --format pretty':
        (0, '0b4ce7aff7411754c439732aa7b7b352abae9076ce8c71f36f6941cd92a427ab'),
    'restriction-image --type G2 --prime 2 --index 2 --degree 2 --format pretty':
        (0, '0b4ce7aff7411754c439732aa7b7b352abae9076ce8c71f36f6941cd92a427ab'),
    'jconstrain --type G2 --prime 2 --index 2 --config g2_kac.json --format pretty':
        (0, '1df5e11481427e52007c2b2b5992289e7f4723222c6819c5afe33867c4a96e81'),
    'verify-theorem --type G2 --prime 2 --index 2 --format pretty':
        (0, '80613e86db345dbc4c77f9469cd24786109190584cf4164cf07324975870152d'),
    'rootinfo --type A2 --lattice simply_connected --format json':
        (0, '8e3b7eda88a8e0a7e903bc2aaaf075c37155911dfb30bc28332b72cf29fb7f11'),
    'restriction-image --type A2 --lattice simply_connected --prime 3 --index 3 --format json':
        (0, '4a0961dc8e557fba82c14a6f010e8bb28196bf7a0917ec30b872c7b3e3f66ff5'),
    'verify-theorem --config a2_model.json --format json':
        (0, '23196e2c5c66f510a3f88bdfab3cef83a6a733a759868c48c05be731b5cfe9fe'),
    'verify-theorem --type A2 --prime 3 --index 3 --format json':
        (0, '23196e2c5c66f510a3f88bdfab3cef83a6a733a759868c48c05be731b5cfe9fe'),
    'oracle --verify firsteq --format json':
        (0, '7bb59a6d5067418322d53660fa9134324698053b9d1aba8977b64534da87dfe0'),
    'oracle --verify gammatoc --max-bundles 4 --max-mult 2 --max-i 3 --format json':
        (0, 'af685a7c1c77ec64e1a50dc9e8fa87b07ed8e044a93a8f1e26f604fd8d870146'),
    'oracle --verify binomial --format json':
        (0, '3d1bc4482996660e1cecc80f69ad69459026a796d3b914cda2d665b02b97cae7'),
    'jconstrain --type E6 --prime 3 --index 1 --format json':
        (0, 'a04f7f96f088f4f0c90bec26b1c1553acf1d27fa7b5c5452209c15e7dd358588'),
    'jconstrain --type E6 --prime 3 --index 3 --format json':
        (0, '3a216dd021339fc7f5b9ee7a9da95426f65ec015e50d7e84f019b94e88a88bc6'),
    'jconstrain --type E6 --prime 3 --index 9 --format json':
        (0, '518f507c9db27fb4f6dfeda842a9114ea5baae94f8919dcb4b6fd0fe2059d2f4'),
    'jconstrain --type E6 --prime 3 --index 27 --format json':
        (0, '9e12ac5a089da6ffaffd166dfc6664ba334064a14ada209b115f58675a30ba13'),
    'rootinfo --type A2 --lattice simply_connected --format tsv':
        (0, 'd05e103d5df433c8592471ac5e23bc3c4f1c04f653625e2a20764504536a97cb'),
    'restriction-image --type A2 --lattice simply_connected --prime 3 --index 3 --format tsv':
        (0, '53e008c096f0d37208541b4fe4f54136778ddb33e6963a6058dd5081cb59d298'),
    'verify-theorem --config a2_model.json --format tsv':
        (0, '3df1f38db86045e86d65c41a1af052a44a54fe52a524849422f7cbea54120b1c'),
    'verify-theorem --type A2 --prime 3 --index 3 --format tsv':
        (0, '3df1f38db86045e86d65c41a1af052a44a54fe52a524849422f7cbea54120b1c'),
    'oracle --verify firsteq --format tsv':
        (0, 'a0718c477406d0aa59123e34f8593a28f8a78061f4b9f710602a23c67ca6157a'),
    'oracle --verify gammatoc --max-bundles 4 --max-mult 2 --max-i 3 --format tsv':
        (0, '662afe3742490920269116986f7293a9e69a32817569358c90adb431fe760bab'),
    'oracle --verify binomial --format tsv':
        (0, '9053c186936f75da1680249f2aaa1abdd34fb1ff27797c72675b95ff0104ca19'),
    'jconstrain --type E6 --prime 3 --index 1 --format tsv':
        (0, '97650420a24d6562d16a3fbcb93a9d25e9a090e8e13c826f2df8561ba0882274'),
    'jconstrain --type E6 --prime 3 --index 3 --format tsv':
        (0, '9437d3b11bcb4191c72926b5f85cdc102baa510368e2bb7525f263d071bcacd5'),
    'jconstrain --type E6 --prime 3 --index 9 --format tsv':
        (0, '4bc6a9d475a30b84101cbff676c456abe7cd1c50e4ce6c3a23b65bf4b8790e11'),
    'jconstrain --type E6 --prime 3 --index 27 --format tsv':
        (0, '4bc6a9d475a30b84101cbff676c456abe7cd1c50e4ce6c3a23b65bf4b8790e11'),
    'rootinfo --type A2 --lattice simply_connected --format pretty':
        (0, '0d07b08c304fba5b6d8e758842a325041cb5d16126dfeb2258a9a82632f448f5'),
    'restriction-image --type A2 --lattice simply_connected --prime 3 --index 3 --format pretty':
        (0, '997484eb34c0a09ffc5b1e8104d77eafb238e56beca63d48dddba1d6b1552ec2'),
    'verify-theorem --config a2_model.json --format pretty':
        (0, '9dd0131e4957be1268c370289ba4f365d9d9ee3fcec16fc6f042e83809a5fabe'),
    'verify-theorem --type A2 --prime 3 --index 3 --format pretty':
        (0, '9dd0131e4957be1268c370289ba4f365d9d9ee3fcec16fc6f042e83809a5fabe'),
    'oracle --verify firsteq --format pretty':
        (0, '7d6b716fcf53b4efc9aa0f5b02e3bc33d18d159da2ae892db6d3589133b6f7d8'),
    'oracle --verify gammatoc --max-bundles 4 --max-mult 2 --max-i 3 --format pretty':
        (0, '04a8892fe5d4ad0f99a527301cf6b7be1a195576bd0a25fe9a4749525820db2f'),
    'oracle --verify binomial --format pretty':
        (0, '5b57a3ae67c1960fe9d1c96e65f0892e855ebf2c7c0b03333415cf02757a507c'),
    'jconstrain --type E6 --prime 3 --index 1 --format pretty':
        (0, '32760daf8c460175393d32136602114f6936a89bb6db67d8df0a23b225e22792'),
    'jconstrain --type E6 --prime 3 --index 3 --format pretty':
        (0, 'c5059db823db756acbdc1b59944275491daae8498dec56915081d4efe6fac708'),
    'jconstrain --type E6 --prime 3 --index 9 --format pretty':
        (0, '356dfa6cafc39507ad91a7f9b3f39a7b9110e2d4565a8a90b58f234e0079fd33'),
    'jconstrain --type E6 --prime 3 --index 27 --format pretty':
        (0, 'c86e9bc92717c5b0c3683618e01f84ed593fbb619653a58a1c15a5cb6095eb29'),
}

# argv (without --no-banner) -> stderr; each exits 2 with empty stdout
USAGE_ERRORS = {
    'rootinfo --type Q9':
        "error: unknown type letter 'Q'\n",
    'rootinfo --type A2 --prime 4':
        'error: p must be prime\n',
    'weyl --type Q9':
        "error: unknown type letter 'Q'\n",
    'weyl --type A2 --prime 4':
        'error: p must be prime\n',
    'chow --type Q9':
        "error: unknown type letter 'Q'\n",
    'chow --type A2 --prime 4':
        'error: p must be prime\n',
    'steinberg --type Q9':
        "error: unknown type letter 'Q'\n",
    'steinberg --type A2 --prime 4':
        'error: p must be prime\n',
    'restriction-image --type Q9':
        "error: unknown type letter 'Q'\n",
    'restriction-image --type A2 --prime 4':
        'error: p must be prime\n',
    'jconstrain --type Q9':
        "error: unknown type letter 'Q'\n",
    'jconstrain --type A2 --prime 4':
        'error: p must be prime\n',
    'verify-theorem --type Q9':
        "error: unknown type letter 'Q'\n",
    'verify-theorem --type A2 --prime 4':
        'error: p must be prime\n',
    'weyl --type E8':
        'error: refusing full enumeration of W(E8): order 696729600 exceeds the size guard 1000000; pass max_length to enumerate a bounded slice\n',
    'steinberg --type E8':
        'error: refusing full enumeration of W(E8): order 696729600 exceeds the size guard 1000000; pass max_length to enumerate a bounded slice\n',
    'restriction-image --type E8':
        'error: refusing full enumeration of W(E8): order 696729600 exceeds the size guard 1000000; pass max_length to enumerate a bounded slice\n',
    'verify-theorem --type E8':
        'error: refusing full enumeration of W(E8): order 696729600 exceeds the size guard 1000000; pass max_length to enumerate a bounded slice\n',
    'rootinfo --type A2 --lattice bogus':
        "error: unknown lattice keyword 'bogus': expected 'adjoint', 'simply_connected', or a list of weight vectors\n",
    'restriction-image --type A2 --lattice bogus':
        "error: unknown lattice keyword 'bogus': expected 'adjoint', 'simply_connected', or a list of weight vectors\n",
    'jconstrain --type A2 --lattice bogus':
        "error: unknown lattice keyword 'bogus': expected 'adjoint', 'simply_connected', or a list of weight vectors\n",
    'verify-theorem --type A2 --lattice bogus':
        "error: unknown lattice keyword 'bogus': expected 'adjoint', 'simply_connected', or a list of weight vectors\n",
    'restriction-image --type A2 --prime 2 --index 2 --degree 3':
        'error: degree cap 3 exceeds p = 2; ideal comparisons need degree <= p\n',
    'verify-theorem --type A2 --prime 2 --max-degree 3':
        'error: degree cap 3 exceeds p = 2; ideal comparisons need degree <= p\n',
    'jconstrain --type A2 --prime 3 --index 3':
        "error: no bundled presentation for A2/adjoint/p=3; supply one as user data (keys 'degrees' and 'exponents' under 'A2:adjoint:3')\n",
    'restriction-image --config invalid_model.json':
        'error: invalid index model: ind(1) != ind(-1) (3 vs 9); ind(2) != ind(-2) (9 vs 3)\n',
    'verify-theorem --config invalid_model.json':
        'error: invalid index model: ind(1) != ind(-1) (3 vs 9); ind(2) != ind(-2) (9 vs 3)\n',
    'jconstrain --config invalid_model.json':
        'error: invalid index model: ind(1) != ind(-1) (3 vs 9); ind(2) != ind(-2) (9 vs 3)\n',
    'restriction-image --config partial_model.json':
        'error: invalid index model: missing index values for elements: 1, 2\n',
    'jconstrain --type A2 --prime 3 --config kac_mismatch.json':
        'error: presentation has 2 degree-1 generators but the character lattice quotient has F_3-dimension 1\n',
    'jconstrain --type A2 --prime 3 --config kac_unsorted.json':
        'error: degrees must be non-decreasing\n',
    'weyl --type A2 --config bad_format.json':
        "error: unknown format 'xml': expected one of ('json', 'tsv', 'pretty')\n",
}


@pytest.fixture
def config_dir(tmp_path, monkeypatch):
    for name, data in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)


def run_cli(capsys, argv: str):
    code = main(argv.split() + ["--no-banner"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(STDOUT))
def test_stdout_golden(argv, capsys, config_dir):
    code, out, err = run_cli(capsys, argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == STDOUT[argv]


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_usage_error_golden(argv, capsys, config_dir):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", USAGE_ERRORS[argv])

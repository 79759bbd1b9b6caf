package gen

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

func TestFromSpecValid(t *testing.T) {
	cases := map[string]struct {
		qubits int
		name   string
	}{
		"qft:5":        {5, "qft"},
		"iqft:3":       {3, "iqft"},
		"ghz:7":        {7, "ghz"},
		"w:4":          {4, "wstate"},
		"grover:6:9":   {6, "grover"},
		"bv:5:21":      {6, "bv"}, // +1 oracle qubit
		"dj:4:5":       {5, "deutsch-jozsa"},
		"qpe:4:1:8":    {5, "qpe"},
		"adder:3:2:5":  {7, "adder"}, // 2n+1
		"random:4:30":  {4, "clifford+t"},
		"qsup:2x3:8:1": {6, "qsup_2x3_8_1"},
	}
	for spec, want := range cases {
		c, err := FromSpec(spec)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if c.NumQubits != want.qubits {
			t.Errorf("%s: %d qubits, want %d", spec, c.NumQubits, want.qubits)
		}
		if !strings.HasPrefix(c.Name, want.name) {
			t.Errorf("%s: name %q, want prefix %q", spec, c.Name, want.name)
		}
	}
}

func TestFromSpecDefaults(t *testing.T) {
	for _, spec := range []string{"qft", "ghz", "grover", "bv", "dj", "qpe", "adder", "random"} {
		if _, err := FromSpec(spec); err != nil {
			t.Errorf("%s with defaults: %v", spec, err)
		}
	}
}

func TestFromSpecInvalid(t *testing.T) {
	bad := []string{
		"", "nope:3", "qft:x", "qsup:3:8", "qsup:axb:8", "qsup:2x2:z",
		"qpe:4:1:0", "grover:4:bad",
	}
	for _, spec := range bad {
		if _, err := FromSpec(spec); err == nil {
			t.Errorf("%q accepted", spec)
		}
	}
}

// TestFromSpecCorpus pins what FromSpec builds for a corpus of specs: the
// sha256 of each accepted spec's AppendCanonical encoding, or "" for a
// rejected spec. The corpus holds every FuzzFromSpec seed, every case of
// TestFromSpecInvalid and TestFromSpecRejectsWithoutPanic, each family's
// defaults, and edge cases of the argument grammar (empty, signed, extra
// and out-of-range arguments).
func TestFromSpecCorpus(t *testing.T) {
	for _, tc := range []struct{ spec, sum string }{
		{"qft:8", "566868712b9195b6365a8f48b7fd9fa712f2224d1a8fba8f4044858c30e5292c"},
		{"iqft:4", "d4bcdb2e287879428a353dccb164b6da88fb92e42630e8c2906c7b45f15c26af"},
		{"ghz:6", "2856165fb079ca08dd5cba783130337fcac412ceba6ea3d49598bd3c4ea79e90"},
		{"w:5", "4402816120f096ad391fb53561693952acd8f9620a1ed5531dd13e62e9b4f35a"},
		{"grover:6:3", "181b52e1371e200eb0bacf93ac60c85e0ef598a06dc389d55c59eae572cb0a03"},
		{"bv:7:11", "e5ac52fd17d39115f599e1709588f7a52a302fca3ea2f087181936ae8a937108"},
		{"dj:5:2", "c287f8843707b5a1fd1266798da33d4782ea7568b237c45e061dccca30ff63ed"},
		{"qpe:4:1:8", "f1f0f7dcfb679dd0f3dc260f74dc713f5ed6624921837bbd3331f4ad38ec27ec"},
		{"adder:3:2:5", "83a8079dbdc7cb0dfb8ee744a2167467e2869a42413860aa80c5cbb1087d9967"},
		{"random:6:50:1", "ef42a16ae6a33a4bd5ee117feaba6f96aec4765df10cf048b636bae45f18ebd5"},
		{"qsup:3x3:8:0", "f48badd4d2ad3eaf4330daad8e841b5ce02836e4a055e245c66e95b4da201d3d"},
		{"qaoa:8:2:3", "f8434ef60404a8c66a47710cc15a4f0989339d62e0b0f6bba5bcc1b679efb053"},
		{"vqe:6:2:full:1", "e40aa474b6202c13d568f01e183b0054ae16fdd3c018b40dedd85156552879d2"},
		{"cliffordt:6:40:8:2", "725660ef8ff9bf204bbfd5661652f09102295c505223d5a8b357f03935dd469d"},
		{"qft", "566868712b9195b6365a8f48b7fd9fa712f2224d1a8fba8f4044858c30e5292c"},
		{"qft:", "566868712b9195b6365a8f48b7fd9fa712f2224d1a8fba8f4044858c30e5292c"},
		{"qaoa:::", "540148551cd584ff85f90c7211f3c376953c73ad138f143f91f27ca6668c5fff"},
		{"bogus:1", ""},
		{"qsup:3x:5", ""},
		{"adder:21", ""},
		{"", ""},
		{"nope:3", ""},
		{"qft:x", ""},
		{"qsup:3:8", ""},
		{"qsup:axb:8", ""},
		{"qsup:2x2:z", ""},
		{"qpe:4:1:0", ""},
		{"grover:4:bad", ""},
		{"qft:0", ""},
		{"qft:-3", ""},
		{"adder:100", ""},
		{"random:0:10", ""},
		{"qaoa:40", ""},
		{"qaoa:8:0", ""},
		{"vqe:8:3:ring", ""},
		{"cliffordt:8:10:11", ""},
		{"qsup:99x99:5", ""},
		{"random:8:999999999", ""},
		{"iqft", "53e4456c3edb714faf84163cf0bca0ed2f2cb46aab3865edd94992440d474bc0"},
		{"ghz", "ffc922a74619c5b37fb87090cf6defe3d06241bfcae1a979cd6d8e1fdf22292d"},
		{"w", "c91a5071193a07045ef70c09df746a35d6fe7e86b05918de4a92e3feb3cf9b53"},
		{"grover", "183c5d25826c3b9f6918f04378a1aa8be2c26eaa69fa780df17b11baf92d6e5a"},
		{"bv", "390ea98945640808e1955a397e9327fe62f52b299c160d3e9bcf6a1e2792e90c"},
		{"dj", "3b1c0242dfc078b8bf9601d3f9f49179a6a39d4a3b6905ac347172186cffe87d"},
		{"dj:4:0", "83543ab35c49e850b32235ce971e20e2db11a023d21e84c9447086f57af08820"},
		{"qpe", "b3a0971b783a34d787b5ea1f359fa3c940a4638a9b68890586818ebd8cb81d31"},
		{"qpe:3:3", "aefb736d87f11edd27bbdce460444b3803e3faaa8cbca2ec40ec48801fceba5a"},
		{"adder", "68f625588d8dc262ef57817b5a344308a15c2bcae131ad4c8c2fa014a59ef3c6"},
		{"random", "d6d9a4646aef8e7dfada259f5459e499eaab4fef1b4dbfab375767ed24b85994"},
		{"qaoa", "540148551cd584ff85f90c7211f3c376953c73ad138f143f91f27ca6668c5fff"},
		{"vqe", "6f27453c304c3706baa823cf26af916c32a03fb0759fe9ef4ebba67eece3fa48"},
		{"vqe:4::linear", "59ffe248040cb075deaf39ebdd8ca7ea332f2665c659f6b03db90983ab5e1d99"},
		{"cliffordt", "f1e2a440bc227eb5959ab57494e28e86670c44b84da9be58719c76596e3d32f8"},
		{"qsup:2x3:8:1", "980713b2b534558fefa0987755e902dfd5b76f40a793fc8bc894c6c25af88481"},
		{"grover:4:100001", ""},
		{"qft:100001", ""},
		{"qsup:2x2:4:-100000", "78bf0ce479338c1429e7aaa64b0f306d9c8131357bd6140468249517e5cc8b03"},
		{"ghz:3:7", "805d1410aadf84e5ba5b40e3650bf9db8a71c65eb3f2ddabee2e85ea6526fd44"},
		{"qsup", ""},
		{"qsup:2x2", ""},
		{"qsup:2x2:", ""},
		{"qsup:2x2:4:x", ""},
		{"qsup:2x2x2:3", ""},
		{"qsup:0x2:3", ""},
		{"qsup:2x2:-1", ""},
		{"qsup:2x2:10001", ""},
		{"vqe:4:2:full:x", ""},
		{"vqe:4:2:", "66b1157cc93312c40faee336aac2f55a0ec5a26705ed1ee34e3e40b9a4912c44"},
		{"grover:4:-1", "ed407ebb278c8b43bc50287da1267603a81b4b52b89ac8e426c84dcce7447da5"},
		{"qaoa:4:1:-5", "a486ff1ca5f4f8f2105c0193f71ad1c002198b2313a19afa9208ba0f5f65830a"},
		{"random:4:5:1:9", "4bce093937aa04133aa9e0ee767d846a91e03a93dc62794740647edf990a83d1"},
		{"dj:4:-1", "c2b333679a5c3a6cffb7f5b54e1b81c5f0aadb4162e56f6e68fe5fb09619815e"},
		{"qpe:3:-1:4", "10bc0cb9b980474d3a4be5bfd348963a83183d4683d2390a2ae2efb6dce5cf8d"},
		{"bv:4:+3", "187b25a46c66f64c9e4d60ef71c24f86fdbb2f568ab47350ace77a1a9edf5906"},
		{"w:2:x", "392bd195da8907b1c1d86450fda9b199a3ee265668be8faa66716d16459ed54f"},
	} {
		c, err := FromSpec(tc.spec)
		got := ""
		if err == nil {
			got = fmt.Sprintf("%x", sha256.Sum256(c.AppendCanonical(nil)))
		}
		if got != tc.sum {
			t.Errorf("FromSpec(%q): canonical sha256 %q (error %v), want %q", tc.spec, got, err, tc.sum)
		}
	}
}

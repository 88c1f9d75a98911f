// Package storagea simulates Storage-A, the paper's anonymized commercial
// distributed storage OS. Its configuration handling shows the patterns the
// paper attributes to the commercial system: dotted parameter names with
// unit mnemonics (cleanup.msec, takeover.sec), a proprietary validation
// library imported into SPEX's knowledge base (iSCSI initiator names,
// Figure 1), the string-to-int32 first-cast basic type (Figure 3a), the
// pcs.size unit-ignorance vulnerability (Figure 7d), many control
// dependencies between protocol groups (silent ignorance dominates its
// Table 5 row), and zero crashes or early terminations — the system never
// dies on bad configuration, it just misbehaves quietly.
package storagea

import (
	"strings"

	"spex/internal/sim"
)

// saConfig holds the appliance configuration.
type saConfig struct {
	logFilesize  string // parsed to int32 later (Figure 3a)
	logDir       string
	exportRoot   string
	snapReserve  int64
	raidStripeKB int64

	iscsiEnable    bool
	iscsiInitiator string
	iscsiPortalIP  string
	iscsiPort      int64
	iscsiQueueLen  int64

	nfsEnable    bool
	nfsExportDir string
	nfsMaxConns  int64
	nfsTCPWindow int64

	cifsEnable   bool
	cifsShareDir string
	cifsMaxMpx   int64

	httpEnable   bool
	httpPort     int64
	httpAdminDir string

	pcsSize     int64 // configured in GB (Figure 7d)
	waflCacheMB int64 // configured in MB
	logBufferKB int64 // configured in KB
	readAheadKB int64
	journalSize int64 // bytes
	nvramSize   int64 // bytes

	cleanupMsec    int64
	flushMsec      int64
	takeoverSec    int64
	givebackSec    int64
	scrubSec       int64
	statusSec      int64
	autosupportMin int64
	weeklyHour     int64
	retryUsec      int64
	pollUsec       int64

	adminUser  string
	adminGroup string
	consoleLog string
}

var scfg = &saConfig{}

// saOption is the option table (structure-based mapping).
type saOption struct {
	name string
	kind string
	iptr *int64
	sptr *string
	bptr *bool
	def  string
}

var saOptions = []saOption{
	{"log.filesize", "str", nil, &scfg.logFilesize, nil, "1048576"},
	{"log.dir", "str", nil, &scfg.logDir, nil, "/vol/log"},
	{"vol.export.root", "str", nil, &scfg.exportRoot, nil, "/vol/vol0"},
	{"snap.reserve", "int", &scfg.snapReserve, nil, nil, "20"},
	{"raid.stripe.kb", "int", &scfg.raidStripeKB, nil, nil, "64"},
	{"iscsi.enable", "bool", nil, nil, &scfg.iscsiEnable, "on"},
	{"iscsi.initiator_name", "str", nil, &scfg.iscsiInitiator, nil, "iqn.2013-01.com.example:storage"},
	{"iscsi.portal.ip", "str", nil, &scfg.iscsiPortalIP, nil, "10.0.0.2"},
	{"iscsi.port", "int", &scfg.iscsiPort, nil, nil, "3260"},
	{"iscsi.queue_len", "int", &scfg.iscsiQueueLen, nil, nil, "32"},
	{"nfs.enable", "bool", nil, nil, &scfg.nfsEnable, "on"},
	{"nfs.export.dir", "str", nil, &scfg.nfsExportDir, nil, "/vol/vol0/home"},
	{"nfs.max_connections", "int", &scfg.nfsMaxConns, nil, nil, "1024"},
	{"nfs.tcp.window", "int", &scfg.nfsTCPWindow, nil, nil, "65536"},
	{"cifs.enable", "bool", nil, nil, &scfg.cifsEnable, "off"},
	{"cifs.share.dir", "str", nil, &scfg.cifsShareDir, nil, "/vol/vol0/share"},
	{"cifs.max_mpx", "int", &scfg.cifsMaxMpx, nil, nil, "50"},
	{"http.enable", "bool", nil, nil, &scfg.httpEnable, "off"},
	{"http.port", "int", &scfg.httpPort, nil, nil, "8080"},
	{"http.admin.dir", "str", nil, &scfg.httpAdminDir, nil, "/vol/vol0/admin"},
	{"pcs.size", "int", &scfg.pcsSize, nil, nil, "1"},
	{"wafl.cache.mb", "int", &scfg.waflCacheMB, nil, nil, "256"},
	{"log.buffer.kb", "int", &scfg.logBufferKB, nil, nil, "64"},
	{"readahead.kb", "int", &scfg.readAheadKB, nil, nil, "128"},
	{"journal.size", "int", &scfg.journalSize, nil, nil, "1048576"},
	{"nvram.size", "int", &scfg.nvramSize, nil, nil, "524288"},
	{"cleanup.msec", "int", &scfg.cleanupMsec, nil, nil, "200"},
	{"flush.msec", "int", &scfg.flushMsec, nil, nil, "500"},
	{"takeover.sec", "int", &scfg.takeoverSec, nil, nil, "180"},
	{"giveback.sec", "int", &scfg.givebackSec, nil, nil, "600"},
	{"scrub.sec", "int", &scfg.scrubSec, nil, nil, "3600"},
	{"status.sec", "int", &scfg.statusSec, nil, nil, "10"},
	{"autosupport.min", "int", &scfg.autosupportMin, nil, nil, "15"},
	{"weekly.hour", "int", &scfg.weeklyHour, nil, nil, "2"},
	{"retry.usec", "int", &scfg.retryUsec, nil, nil, "100"},
	{"poll.usec", "int", &scfg.pollUsec, nil, nil, "250"},
	{"admin.user", "str", nil, &scfg.adminUser, nil, "root"},
	{"admin.group", "str", nil, &scfg.adminGroup, nil, "wheel"},
	{"console.log", "str", nil, &scfg.consoleLog, nil, "/vol/log/console.log"},
}

// atoi parses integers the legacy way: errors yield 0 silently.
func atoi(s string) int64 {
	var n int64
	neg := false
	i := 0
	if len(s) > 0 && s[0] == '-' {
		neg = true
		i = 1
	}
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

// applyOptions loads raw values through the option table; numeric options
// go through the legacy atoi (28 unsafe-transformation parameters in the
// paper's Table 8 row).
func applyOptions(vals map[string]string) {
	for i := range saOptions {
		o := &saOptions[i]
		raw, ok := vals[o.name]
		if !ok {
			raw = o.def
		}
		switch o.kind {
		case "int":
			*o.iptr = atoi(raw)
		case "str":
			*o.sptr = raw
		case "bool":
			*o.bptr = raw == "on"
		}
	}
}

// applianceState is the running appliance.
type applianceState struct {
	conf       *saConfig
	luns       map[string]bool
	logSizeCap int32
}

// startAppliance boots the storage OS. It never exits on bad values: it
// clamps, ignores, and keeps serving (Storage-A's Table 5 row has zero
// crashes and zero early terminations).
func startAppliance(env *sim.Env, c *saConfig) (*applianceState, error) {
	st := &applianceState{conf: c, luns: map[string]bool{}}

	// log.filesize arrives as a string and becomes a 32-bit integer
	// (Figure 3a); an overflowing value silently wraps (Figure 5a).
	st.logSizeCap = int32(atoi(c.logFilesize))

	if c.snapReserve < 0 {
		c.snapReserve = 0
	} else if c.snapReserve > 100 {
		c.snapReserve = 100
	}
	if c.raidStripeKB < 4 {
		c.raidStripeKB = 4
	} else if c.raidStripeKB > 256 {
		c.raidStripeKB = 256
	}

	// Sizes in four different units (Table 7 inconsistency): pcs.size is
	// GB, wafl.cache.mb is MB, log.buffer.kb is KB, journal/nvram are
	// bytes.
	allocBuffer(c.pcsSize * 1073741824)
	allocPool(c.waflCacheMB * 1048576)
	allocPool(c.logBufferKB * 1024)
	allocPool(c.readAheadKB * 1024)
	allocPool(c.journalSize)
	allocPool(c.nvramSize)

	// Timers in five different units.
	sleepMillis(c.cleanupMsec)
	sleepMillis(c.flushMsec)
	sleepSeconds(c.takeoverSec)
	sleepSeconds(c.givebackSec)
	sleepSeconds(c.scrubSec)
	sleepSeconds(c.statusSec)
	sleepSeconds(c.autosupportMin * 60)
	sleepSeconds(c.weeklyHour * 3600)
	sleepMicros(c.retryUsec)
	sleepMicros(c.pollUsec)

	if !env.FS.IsDir(c.logDir) {
		_ = env.FS.MkdirAll(c.logDir)
	}
	_ = env.FS.WriteFile(c.consoleLog, nil, 6)

	if c.iscsiEnable {
		// Initiator names must be all lowercase (the proprietary
		// constraint behind Figure 1); an invalid name silently fails
		// to register the LUN — the share is simply "not recognized".
		if validateInitiator(c.iscsiInitiator) {
			st.luns[c.iscsiInitiator] = true
		}
		if c.iscsiQueueLen < 1 {
			c.iscsiQueueLen = 1
		} else if c.iscsiQueueLen > 256 {
			c.iscsiQueueLen = 256
		}
		_ = env.Net.Bind("tcp", int(c.iscsiPort), "storagea")
	}
	if c.nfsEnable {
		if !env.FS.IsDir(c.nfsExportDir) {
			// Export silently dropped: clients will see failures with
			// no server-side message.
			_ = c.nfsExportDir
		} else {
			st.luns["nfs:"+c.nfsExportDir] = true
		}
		if c.nfsMaxConns < 16 {
			c.nfsMaxConns = 16
		}
		allocPool(c.nfsTCPWindow)
	}
	if c.cifsEnable {
		if env.FS.IsDir(c.cifsShareDir) {
			st.luns["cifs:"+c.cifsShareDir] = true
		}
		if c.cifsMaxMpx < 2 {
			c.cifsMaxMpx = 2
		}
	}
	if c.httpEnable {
		_ = env.Net.Bind("tcp", int(c.httpPort), "storagea")
		if !env.FS.IsDir(c.httpAdminDir) {
			_ = c.httpAdminDir
		}
	}
	lookupUser(c.adminUser)
	lookupGroup(c.adminGroup)
	return st, nil
}

// rotateLog appends to the appliance log, rotating at log.filesize.
func (st *applianceState) rotateLog(env *sim.Env, entry string) bool {
	if st.logSizeCap <= 0 {
		// A wrapped or unparsable size disables rotation silently.
		return false
	}
	_ = env.FS.Append(st.conf.consoleLog, []byte(entry+"\n"))
	return true
}

// discoverLUN models an iSCSI discovery request from an initiator.
func (st *applianceState) discoverLUN(initiator string) bool {
	return st.luns[initiator]
}

// --- proprietary library (imported into SPEX's knowledge base via the
// paper's customization hook) ---

// validateInitiator enforces the iSCSI initiator naming rule: lowercase
// letters, digits, and the characters ".-:" only.
func validateInitiator(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		lower := r >= 'a' && r <= 'z'
		digit := r >= '0' && r <= '9'
		if !lower && !digit && !strings.ContainsRune(".-:", r) {
			return false
		}
	}
	return true
}

func lookupUser(name string) bool  { return name == "root" || name == "admin" }
func lookupGroup(name string) bool { return name == "wheel" || name == "staff" }

// --- runtime helpers ---

func allocBuffer(n int64) []byte {
	if n < 0 {
		n = 0 // the appliance clamps rather than crashing
	}
	capped := n
	if capped > 1<<20 {
		capped = 1 << 20
	}
	return arena[:capped:capped]
}

func allocPool(n int64) {
	if n < 0 {
		return
	}
}

func sleepSeconds(n int64) {
	if n <= 0 {
		return
	}
}

func sleepMillis(n int64) {
	if n <= 0 {
		return
	}
}

func sleepMicros(n int64) {
	if n <= 0 {
		return
	}
}

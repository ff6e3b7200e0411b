package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"

	"agnn/internal/obs/evlog"
)

// watchSignal blocks on sig forever, writing one dump per delivery. Split
// from NotifySignal so tests can drive it without real signals.
func watchSignal(sig os.Signal) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, sig)
	for range ch {
		dumpOnSignal()
	}
}

// dumpOnSignal captures the Default set with reason "signal" and
// writes it to the dump directory, falling back to stderr so a SIGQUIT
// always yields something even in unconfigured processes.
func dumpOnSignal() {
	d := Capture(evlog.Default, "signal")
	if dir := DumpDir(); dir != "" {
		if path, err := d.WriteFile(dir); err == nil {
			fmt.Fprintf(os.Stderr, "flight: signal dump written to %s\n", path)
			return
		}
	}
	raw, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "flight: signal dump:\n%s\n", raw)
}

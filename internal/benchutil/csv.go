package benchutil

import (
	"fmt"
	"io"
)

// CSVHeader is the column layout of every result file, modeled on the
// artifact's unified_results.csv.
const CSVHeader = "figure,model,engine,dataset,task,ranks,vertices,edges,maxdeg,features,layers,median_s,std_s,comm_bytes_max,comm_msgs_max,netmodel_s,predicted_words"

// WriteCSVHeader emits the header line.
func WriteCSVHeader(w io.Writer) error {
	_, err := fmt.Fprintln(w, CSVHeader)
	return err
}

// WriteCSV appends one result row tagged with the figure/table id it
// belongs to.
func (r Result) WriteCSV(w io.Writer, figure string) error {
	task := "training"
	if r.Inference {
		task = "inference"
	}
	predicted := "NA" // the forward-only law does not apply to training
	if r.Inference {
		predicted = fmt.Sprintf("%.6g", r.PredictedWords)
	}
	_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%.6g,%.6g,%d,%d,%.6g,%s\n",
		figure, r.Model, r.Engine, r.Dataset, task, r.Ranks, r.N, r.M, r.MaxDegree,
		r.Features, r.Layers, r.MedianSec, r.StdSec,
		r.CommBytesMax, r.CommMsgsMax, r.NetModelSec, predicted)
	return err
}
